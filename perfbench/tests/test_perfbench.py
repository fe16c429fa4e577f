"""Tests of the benchmark itself: its checks, its tracing and its contract.

    python3 -m pytest perfbench/tests -q

Each workload runs one traced round in-process (about 20 s in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / ".perfbench_work" / "tests"


@pytest.fixture
def work_dir(request):
    path = WORK / request.node.name.replace("[", "-").replace("]", "")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def reference():
    return wl.load_reference()


def test_benchmark_json_matches_harness():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracing.PER_LAYER


def _sample_cycle(work_dir, reference, trials=20):
    """A gen-demos / validate pair on lq_tracking with ``trials`` trajectories."""
    workload = wl.SampleEval(work_dir, 3, reference)
    workload.prepare()
    gen, validate, _ = workload._cycle("lq_tracking")
    gen.argv[gen.argv.index("--trials") + 1] = str(trials)
    return workload, gen, validate


def test_gen_demos_check_rejects_truncated_and_altered_files(work_dir, reference):
    workload, gen, validate = _sample_cycle(work_dir, reference)
    demos = Path(gen.argv[gen.argv.index("--out") + 1])
    header = checks.trajectory_header(8, [2, 2])
    args = (demos, 20, 30, header)
    rc, _, _ = wl.execute(gen.argv)
    seen = {}
    assert checks.check_gen_demos(rc, *args, seen, "k", reference["sample"]["lq_tracking"]) == 20
    assert checks.check_validate(*wl.execute(validate.argv)[:2], 20, 30) == 600

    original = demos.read_bytes()
    demos.write_bytes(original[: len(original) // 2])
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_gen_demos(0, *args, {}, "k", reference["sample"]["lq_tracking"])
    with pytest.raises(checks.CheckFailed, match="exit code 1"):
        checks.check_validate(*wl.execute(validate.argv)[:2], 20, 30)

    demos.write_bytes(original.replace(b",0.", b",1.", 1))
    with pytest.raises(checks.CheckFailed, match="rerun"):
        checks.check_gen_demos(0, *args, seen, "k", reference["sample"]["lq_tracking"])
    lines = original.decode().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[2] = repr(float(row[2]) + 0.5)  # agent 1's x position off by half a metre
    demos.write_text("\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n")
    with pytest.raises(checks.CheckFailed, match="reference"):
        checks.check_gen_demos(0, *args, {}, "k", reference["sample"]["lq_tracking"])


def test_solve_check_rejects_non_spd_covariance(work_dir, reference):
    workload = wl.SolveMix(work_dir, 0, reference)
    workload.prepare()
    command = workload.round(0)[0]
    rc, stdout, _ = wl.execute(command.argv)
    assert command.check(rc, stdout) >= 2
    policy = Path(command.argv[command.argv.index("--out-policy") + 1])
    doc = json.loads(policy.read_text())
    good = json.dumps(doc)

    doc["covariances"][0][5] = [[1.0, 2.0], [2.0, 1.0]]  # symmetric, eigenvalues 3 and -1
    policy.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckFailed, match="positive definite"):
        command.check(rc, stdout)

    doc = json.loads(good)
    doc["covariances"][1][0][0][1] += 1e-3
    policy.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckFailed, match="symmetric"):
        command.check(rc, stdout)

    doc = json.loads(good)
    doc["nominal_states"][-1][0] += 0.01
    policy.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckFailed, match="nominal"):
        command.check(rc, stdout)


@pytest.mark.parametrize("mode", wl.LEARN_MODES)
def test_learn_check_rejects_weights_outside_tolerance(mode, work_dir, reference):
    workload = wl.LearnCrossing(work_dir, 0, reference)
    workload.prepare()
    command = workload._learn(mode, 7)  # a capped run
    rc, stdout, _ = wl.execute(command.argv)
    assert rc == 1 and command.check(rc, stdout) == 2 * wl.LEARN_SWEEPS
    weights = Path(command.argv[command.argv.index("--out-weights") + 1])
    doc = json.loads(weights.read_text())
    learned = [np.asarray(w) for w in doc["weights"]]

    # A learner that never updates returns its all-ones starting weights.
    doc["weights"] = [np.ones_like(w).tolist() for w in learned]
    weights.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckFailed, match="reference"):
        command.check(rc, stdout)

    # A gradient of the wrong sign moves every weight the other way from 1.
    doc["weights"] = [(2.0 - w).tolist() for w in learned]
    weights.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckFailed, match="reference"):
        command.check(rc, stdout)

    doc["weights"] = [w.tolist() for w in learned]
    doc["weights"][0][0] = float("nan")
    weights.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        command.check(rc, stdout)


def test_eval_check_rejects_negative_kl(work_dir):
    (work_dir / "kl.csv").write_text("agent,feature,kl\n0,tracking,0.1\n0,control,-0.2\n")
    (work_dir / "goal_stats.csv").write_text("agent,mean_dist,std_dist\n0,0.1,0.01\n")
    (work_dir / "rmse.csv").write_text("t,rmse\n1,0.0\n2,0.1\n")
    with pytest.raises(checks.CheckFailed, match="KL"):
        checks.check_eval(0, work_dir, [2], 2, 10)
    (work_dir / "kl.csv").write_text("agent,feature,kl\n0,tracking,0.1\n0,control,0.2\n")
    assert checks.check_eval(0, work_dir, [2], 2, 10) == 10
    (work_dir / "rmse.csv").unlink()
    with pytest.raises(checks.CheckFailed, match="missing"):
        checks.check_eval(0, work_dir, [2], 2, 10)


SOLVER = {
    "ilq.linearize", "ilq.quadratize", "ilq.stage_game_around", "ilq.solve_ece",
    "lq.solve_lq_ece", "simulate.simulate_mean", "simulate.evaluate_cost",
}
COMMON = {"cli.main", "config.load_scenario", "config.make_game"} | SOLVER
EXPECTED_SPANS = {
    "solve-mix": COMMON | {"trajio.write_policy", "trajio.write_iteration_trace"},
    "sample-eval": COMMON | {
        "simulate.simulate_stochastic", "simulate.rollout_batch", "features.eval_features",
        "metrics.kl_divergence_per_feature", "metrics.goal_distance_stats",
        "metrics.trajectory_rmse", "trajio.write_trajectories", "trajio.read_trajectories",
        "trajio.write_kl_table", "trajio.write_goal_stats", "trajio.write_rmse",
    },
    "learn-crossing": COMMON | {
        "simulate.simulate_stochastic", "features.eval_features", "game.pin_other_agents",
        "irl.run_mairl", "irl.estimate_feature_expectation", "trajio.read_trajectories",
        "trajio.write_weights", "trajio.write_learn_trace",
    },
}


def _share(metrics, spans):
    return sum(metrics[tracing._self_metric(s)] for s in spans) / metrics["traced.total_s"]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_round(name, work_dir, reference):
    workload = wl.WORKLOADS[name](work_dir, 5, reference)
    workload.prepare()
    from ecegames import cli

    original_main = cli.main
    tracer = tracing.Tracer()
    with tracing.install(tracer), tracer.root():
        records = wl.run_timed(workload, 0.0, tracer)
    assert cli.main is original_main  # every rebinding is undone
    assert [r.error for r in records if r.error] == []

    metrics = tracer.metrics()
    assert set(metrics) == {m for m, _, _ in tracing.PER_LAYER}
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["traced.total_s"], rel=1e-9)
    seen = {span[0] for span in tracer.spans}
    assert EXPECTED_SPANS[name] <= seen, EXPECTED_SPANS[name] - seen
    assert metrics["traced.commands"] == len(records)

    stochastic = ["simulate.simulate_stochastic", "features.eval_features"]
    if name == "solve-mix":
        assert _share(metrics, SOLVER) >= 0.5
        assert metrics["simulate.simulate_stochastic.calls"] == 0
    elif name == "sample-eval":
        assert _share(metrics, [s for s in SOLVER if s.startswith(("ilq", "lq"))]) <= 0.10
        assert metrics["simulate.simulate_stochastic.calls"] == 4 * wl.SAMPLE_TRIALS
    else:
        assert _share(metrics, SOLVER) >= 0.2 and _share(metrics, stochastic) >= 0.2
        updates = 2 * 2 * wl.LEARN_SWEEPS
        assert metrics["irl.agent_updates"] == updates
        assert metrics["irl.mc_samples"] == updates * 50
        assert metrics["game.pin_other_agents.calls"] == 2 * wl.LEARN_SWEEPS


def test_run_without_sources_fails_without_result():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "solve-mix", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
