"""Command-line interface: contracts, determinism, file handling."""

import argparse
import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ecegames import LineSearchError, cli, irl, simulate_mean, solve_ece, trajio
from ecegames.cli import main
from ecegames.config import load_scenario


@pytest.fixture(scope="module")
def lq_config(config_dir):
    return str(config_dir / "lq_tracking.json")


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize(
    "command",
    [["gen-demos", "--trials", "1", "--out", "{out}.csv"],
     ["learn", "--demos", "{out}.csv", "--out-weights", "{out}.json"],
     ["eval", "--demos", "{out}.csv", "--trials", "1", "--out", "{out}"]],
)
def test_negative_seed_is_usage_error(command, tmp_path, lq_config, capsys):
    args = [a.format(out=tmp_path / "out") for a in command]
    with pytest.raises(SystemExit) as err:
        main([*args, "--config", lq_config, "--seed", "-5"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "error: argument --seed: must be a non-negative integer" in stderr
    assert "Traceback" not in stderr
    assert not list(tmp_path.iterdir())


# The scenario's learner block is the one place for the learner's numerics,
# and learn --mode the one place for a run's choice.
@pytest.mark.parametrize("flag", [["--lr", "0.1"], ["--samples", "5"]])
def test_learner_numerics_are_not_flags(flag, tmp_path, lq_config, capsys):
    with pytest.raises(SystemExit) as err:
        main(["learn", "--config", lq_config, "--demos", str(tmp_path / "d.csv"),
              "--out-weights", str(tmp_path / "w.json"), *flag])
    assert err.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key, value",
                         [("mode", "independent"), ("base_seed", 3), ("effort_weight_floor", 0.01)])
def test_run_choices_are_not_config_keys(key, value, tmp_path, lq_config, capsys):
    cfg = json.loads(Path(lq_config).read_text())
    cfg["learner"][key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    rc = main(["learn", "--config", str(config), "--demos", str(tmp_path / "d.csv"),
               "--out-weights", str(tmp_path / "w.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: unknown key '{key}' in learner\n"


def test_sample_count_is_not_a_config_key(tmp_path, lq_config, capsys):
    # The learner draws nothing, so a Monte-Carlo sample count is refused.
    cfg = json.loads(Path(lq_config).read_text())
    cfg["learner"]["samples_per_expectation"] = 50
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    rc = main(["learn", "--config", str(config), "--demos", str(tmp_path / "d.csv"),
               "--out-weights", str(tmp_path / "w.json")])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown key 'samples_per_expectation' in learner\n"


def test_learn_ignores_its_seed(tmp_path, lq_config):
    # On unicycle dynamics too the learner draws nothing: --seed changes no byte.
    cfg = json.loads(Path(lq_config).read_text())
    cfg["dynamics"] = {"kind": "unicycle"}
    cfg["learner"]["max_outer_iterations"] = 3
    config, demos = str(tmp_path / "unicycle.json"), str(tmp_path / "demos.csv")
    Path(config).write_text(json.dumps(cfg))
    assert main(["gen-demos", "--config", config, "--trials", "20", "--seed", "1",
                 "--out", demos]) == 0
    outputs = []
    for run, seed in enumerate(([], ["--seed", "5"])):
        weights, trace = tmp_path / f"weights{run}.json", tmp_path / f"trace{run}.csv"
        main(["learn", "--config", config, "--demos", demos, *seed,
              "--out-weights", str(weights), "--trace", str(trace)])
        outputs.append((read_bytes(weights), read_bytes(trace)))
    assert outputs[0] == outputs[1]


def test_readme_cli_block_shows_every_flag(config_dir):
    # Each command of README's CLI block, with its continuation lines, shows
    # exactly the flags its subcommand defines.
    readme = (config_dir.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1].replace("\\\n", " ")
    shown = {}
    for line in block.splitlines():
        if line.startswith("ecegames "):
            words = line.split()
            shown[words[1]] = {w for w in words if w.startswith("--")}
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    defined = {name: {s for a in sub._actions for s in a.option_strings if s != "--help"}
               - {"-h"} for name, sub in subcommands.items()}
    assert shown == defined


class TestGenDemos:
    def test_writes_expected_rows(self, tmp_path, lq_config):
        out = tmp_path / "demos.csv"
        rc = main(
            ["gen-demos", "--config", lq_config, "--trials", "5", "--seed", "3",
             "--out", str(out)]
        )
        assert rc == 0
        scenario = load_scenario(lq_config)
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 5 * scenario.horizon

    def test_byte_identical_reruns(self, tmp_path, lq_config):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            rc = main(
                ["gen-demos", "--config", lq_config, "--trials", "2", "--seed", "7",
                 "--out", str(out)]
            )
            assert rc == 0
        assert read_bytes(a) == read_bytes(b)

    def test_zero_trials_usage_error(self, tmp_path, lq_config, capsys):
        out = tmp_path / "demos.csv"
        with pytest.raises(SystemExit) as err:
            main(["gen-demos", "--config", lq_config, "--trials", "0", "--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()

    def test_missing_true_weights_is_usage_error(self, tmp_path, lq_config):
        cfg = json.loads(open(lq_config).read())
        del cfg["agents"][0]["true_weights"]
        path = tmp_path / "noweights.json"
        path.write_text(json.dumps(cfg))
        rc = main(
            ["gen-demos", "--config", str(path), "--trials", "1",
             "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2


class TestSolve:
    def test_lq_scenario_converges_in_two_iterations(self, tmp_path, lq_config):
        policy_path = tmp_path / "policy.json"
        trace_path = tmp_path / "trace.csv"
        rc = main(
            ["solve", "--config", lq_config, "--out-policy", str(policy_path),
             "--trace", str(trace_path)]
        )
        assert rc == 0
        with open(trace_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[-1]["max_deviation"]) < 1e-4

    def test_policy_round_trip_matches_nominal(self, tmp_path, lq_config):
        policy_path = tmp_path / "policy.json"
        rc = main(["solve", "--config", lq_config, "--out-policy", str(policy_path)])
        assert rc == 0
        scenario = load_scenario(lq_config)
        game = scenario.make_game(scenario.true_weights())
        policies = trajio.read_policy(policy_path)
        rolled = simulate_mean(game, policies)
        assert np.max(np.abs(rolled.states - policies.nominal_states)) < 1e-9

    def test_byte_identical_reruns(self, tmp_path, lq_config):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert main(["solve", "--config", lq_config, "--out-policy", str(path)]) == 0
        assert read_bytes(a) == read_bytes(b)

    def test_non_convergence_fails_after_writing_partial_trace(
        self, tmp_path, config_dir, capsys
    ):
        cfg = json.loads((config_dir / "two_agent_crossing.json").read_text())
        cfg["solver"]["max_iterations"] = 1
        path = tmp_path / "one_iteration.json"
        path.write_text(json.dumps(cfg))
        policy_path = tmp_path / "policy.json"
        trace_path = tmp_path / "trace.csv"
        rc = main(["solve", "--config", str(path), "--out-policy", str(policy_path),
                   "--trace", str(trace_path)])
        assert rc == 1
        assert "equilibrium solve did not converge" in capsys.readouterr().err
        assert not policy_path.exists()
        with open(trace_path) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["iteration"] for row in rows] == ["1"]

    def test_singular_stage_fails_with_one_error_line(self, huge_weights_config, capsys):
        # Weights of 1e307 overflow the values, and the first non-finite stage
        # matrix is one that no diagonal shift makes solvable.  The overflow
        # warns, but a command that fails shows only its error line.
        path, policy_path = huge_weights_config
        rc = main(["solve", "--config", str(path), "--out-policy", str(policy_path)])
        assert rc == 1
        assert capsys.readouterr().err == SINGULAR_STAGE_ERROR
        assert not policy_path.exists()

    def test_singular_stage_stderr_is_one_line(self, huge_weights_config):
        path, policy_path = huge_weights_config
        proc = subprocess.run(
            [sys.executable, "-m", "ecegames.cli", "solve", "--config", str(path),
             "--out-policy", str(policy_path)],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == SINGULAR_STAGE_ERROR
        assert not policy_path.exists()


SINGULAR_STAGE_ERROR = "error: coupled stage system singular at t=57 (condition estimate inf)\n"


@pytest.fixture
def huge_weights_config(tmp_path, config_dir):
    """The crossing with both agents' true weights [1e307, 1e307, 6.0], and
    a policy path for its solve."""
    cfg = json.loads((config_dir / "two_agent_crossing.json").read_text())
    for agent in cfg["agents"]:
        agent["true_weights"] = [1e307, 1e307, 6.0]
    path = tmp_path / "huge_weights.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / "policy.json"


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_warnings_shown_after_success(monkeypatch, tmp_path, config_dir):
    # main holds warnings while a command runs; one that succeeds shows them.
    def command(args):
        warnings.warn("held back", RuntimeWarning)
        return 0

    monkeypatch.setattr(cli, "cmd_validate", command)
    config = str(config_dir / "lq_tracking.json")
    with pytest.warns(RuntimeWarning, match="held back"):
        assert main(["validate", "--config", config, "--trajectories", str(tmp_path / "x.csv")]) == 0


@pytest.fixture(scope="module")
def small_config(tmp_path_factory, config_dir):
    # A reduced copy of the crossing scenario that learns in seconds.
    cfg = json.loads(open(config_dir / "two_agent_crossing.json").read())
    cfg["horizon"] = 20
    cfg["learner"]["max_outer_iterations"] = 40
    cfg["learner"]["residual_tol"] = 0.2
    path = tmp_path_factory.mktemp("cfg") / "small.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def demo_file(tmp_path_factory, small_config):
    path = tmp_path_factory.mktemp("demos") / "demos.csv"
    rc = main(
        ["gen-demos", "--config", small_config, "--trials", "30", "--seed", "5",
         "--out", str(path)]
    )
    assert rc == 0
    return str(path)


class TestLearnAndEval:
    def test_learn_writes_weights_and_trace(self, tmp_path, small_config, demo_file):
        weights_path = tmp_path / "weights.json"
        trace_path = tmp_path / "trace.csv"
        rc = main(
            ["learn", "--config", small_config, "--demos", demo_file, "--seed", "2",
             "--out-weights", str(weights_path), "--trace", str(trace_path)]
        )
        assert rc == 0
        weights = trajio.read_weights(weights_path)
        assert len(weights) == 2 and all(w.shape == (3,) for w in weights)
        with open(trace_path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) >= {"iteration", "agent", "residual", "weight"}

    def test_failed_learn_writes_trace_so_far(
        self, monkeypatch, tmp_path, small_config, demo_file, capsys
    ):
        # The first sweep's demo-started solve fails and its cold retry
        # passes; every later solve fails, warm and cold alike.
        solves = []

        def first_sweep_only(game, init=None, config=None):
            solves.append(init)
            if len(solves) != 2:
                raise LineSearchError(iteration=1, min_step=1e-3)
            return solve_ece(game, init=init, config=config)

        monkeypatch.setattr(irl, "solve_ece", first_sweep_only)
        weights_path = tmp_path / "weights.json"
        trace_path = tmp_path / "trace.csv"
        rc = main(
            ["learn", "--config", small_config, "--demos", demo_file,
             "--out-weights", str(weights_path), "--trace", str(trace_path)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: equilibrium solve failed in sweep 2: ")
        assert [init is None for init in solves] == [False, True, False, True]
        assert not weights_path.exists()
        with open(trace_path) as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["iteration"], row["agent"]) for row in rows] == [
            ("1", agent) for agent in "01" for _ in range(3)
        ]
        # The trailing column flags the first sweep's cold fallback.
        assert list(rows[0])[-1] == "cold_fallback"
        assert all(row["cold_fallback"] == "1" for row in rows)

    def test_failed_feature_expectation_names_its_phase(self, tmp_path, config_dir, capsys):
        # With noise scaled by 1e200 the solve converges (the policies do not
        # depend on the noise), but the state covariance overflows at t=2.
        cfg = json.loads((config_dir / "two_agent_crossing.json").read_text())
        cfg["horizon"] = 5
        config, noisy = tmp_path / "short.json", tmp_path / "noisy.json"
        config.write_text(json.dumps(cfg))
        cfg["noise"] = {"kind": "scaled_identity", "scale": 1e200}
        noisy.write_text(json.dumps(cfg))
        demos, weights, trace = tmp_path / "d.csv", tmp_path / "w.json", tmp_path / "t.csv"
        assert main(["gen-demos", "--config", str(config), "--trials", "10", "--seed", "1",
                     "--out", str(demos)]) == 0
        capsys.readouterr()
        rc = main(["learn", "--config", str(noisy), "--demos", str(demos),
                   "--out-weights", str(weights), "--trace", str(trace)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: feature expectation failed in sweep 1: "
            "non-finite state covariance encountered at time step t=2\n"
        )
        assert not weights.exists()
        assert trace.read_text().count("\n") == 1  # the header: no update finished

    def test_learn_byte_identical_reruns(self, tmp_path, small_config, demo_file):
        outs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{tag}.json"
            rc = main(
                ["learn", "--config", small_config, "--demos", demo_file, "--seed", "2",
                 "--out-weights", str(path)]
            )
            assert rc == 0
            outs.append(read_bytes(path))
        assert outs[0] == outs[1]

    def test_learn_mode_n1_equivalence(self, tmp_path, config_dir, demo_file, small_config):
        # joint and independent agree for a single agent; here we just check
        # the flag plumbs through and both modes run on the small scenario.
        for mode in ("joint", "independent"):
            rc = main(
                ["learn", "--config", small_config, "--demos", demo_file, "--seed", "2",
                 "--mode", mode, "--out-weights", str(tmp_path / f"{mode}.json")]
            )
            assert rc == 0

    def test_demo_dimension_mismatch_fails(self, tmp_path, small_config, demo_file, config_dir):
        rc = main(
            ["learn", "--config", str(config_dir / "lq_tracking.json"),
             "--demos", demo_file, "--out-weights", str(tmp_path / "w.json")]
        )
        assert rc == 1

    def test_malformed_demo_row_fails_with_line(self, tmp_path, small_config, demo_file, capsys):
        lines = open(demo_file).read().splitlines()
        lines[2] = "not,a,number"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(
            ["learn", "--config", small_config, "--demos", str(bad),
             "--out-weights", str(tmp_path / "w.json")]
        )
        assert rc == 1
        assert "line 3" in capsys.readouterr().err

    def test_eval_outputs_tables(self, tmp_path, small_config, demo_file):
        out_dir = tmp_path / "metrics"
        rc = main(
            ["eval", "--config", small_config, "--demos", demo_file, "--trials", "30",
             "--seed", "9", "--out", str(out_dir)]
        )
        assert rc == 0
        with open(out_dir / "kl.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r for r in rows[0]] == ["agent", "feature", "kl"]
        assert len(rows) == 6  # 2 agents x 3 features
        with open(out_dir / "goal_stats.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r for r in rows[0]] == ["agent", "mean_dist", "std_dist"]
        with open(out_dir / "rmse.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r for r in rows[0]] == ["t", "rmse"]
        assert len(rows) == 20

    def test_eval_demos_against_themselves_zero_kl(self, tmp_path, small_config, demo_file):
        # Feed the demo batch as the model by learning nothing: evaluate with
        # the true weights and the same seed used to build the demos.
        out_dir = tmp_path / "self"
        rc = main(
            ["eval", "--config", small_config, "--demos", demo_file, "--trials", "30",
             "--seed", "5", "--out", str(out_dir)]
        )
        assert rc == 0
        with open(out_dir / "kl.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert float(row["kl"]) == 0.0

    def test_eval_byte_identical_reruns(self, tmp_path, small_config, demo_file):
        dirs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            rc = main(
                ["eval", "--config", small_config, "--demos", demo_file, "--trials", "10",
                 "--seed", "4", "--out", str(out_dir)]
            )
            assert rc == 0
            dirs.append(out_dir)
        for name in ("kl.csv", "goal_stats.csv", "rmse.csv"):
            assert read_bytes(dirs[0] / name) == read_bytes(dirs[1] / name)


class TestSolveStarts:
    """``eval`` solves from the demo start and cold, ``solve`` and ``gen-demos``
    only cold."""

    def test_failed_demo_start_of_eval_falls_back_to_cold(
        self, monkeypatch, tmp_path, small_config, demo_file
    ):
        starts = []

        def started_fails(game, init=None, config=None):
            starts.append(init)
            if init is not None:
                raise LineSearchError(iteration=1, min_step=1e-3)
            return solve_ece(game, config=config)

        monkeypatch.setattr(irl, "solve_ece", started_fails)
        rc = main(["eval", "--config", small_config, "--demos", demo_file, "--trials", "5",
                   "--out", str(tmp_path / "metrics")])
        assert rc == 0
        demos = trajio.read_trajectories(demo_file, 8, (2, 2))
        assert len(starts) == 2 and starts[1] is None
        for got, mean in zip(starts[0].nominal_actions, demos.actions, strict=True):
            assert np.array_equal(got, np.mean(mean, axis=0))

    @pytest.mark.parametrize("command", ["solve", "gen-demos"])
    def test_commands_without_demos_solve_cold(
        self, monkeypatch, tmp_path, small_config, command
    ):
        inits = []

        def spy(game, init=None, config=None):
            inits.append(init)
            return solve_ece(game, init=init, config=config)

        monkeypatch.setattr(cli, "solve_ece", spy)
        out = str(tmp_path / "out")
        argv = {"solve": ["--out-policy", out], "gen-demos": ["--trials", "2", "--out", out]}
        assert main([command, "--config", small_config, *argv[command]]) == 0
        assert inits == [None]

    def test_eval_passes_agent_0_on_the_demos_side(self, monkeypatch, tmp_path, config_dir):
        # Learned joint weights on 200 crossing demos from seed 1000.  The
        # crossing has two mirror-image swerves; solved cold, these weights
        # reach the one where agent 0 passes at -x, -y, the demos' mirror.
        config = str(config_dir / "two_agent_crossing.json")
        demo_path, weights_path = tmp_path / "demos.csv", tmp_path / "weights.json"
        assert main(["gen-demos", "--config", config, "--trials", "200", "--seed", "1000",
                     "--out", str(demo_path)]) == 0
        weights = [np.array([2.143996, 0.910243, 3.522741]),
                   np.array([2.559628, 1.040944, 3.469161])]
        trajio.write_weights(weights_path, weights, [["a", "b", "c"]] * 2)
        solutions = []

        def spy(game, demos, solver_config=None):
            solutions.append(irl.solve_near_demos(game, demos, solver_config))
            return solutions[-1]

        monkeypatch.setattr(cli, "solve_near_demos", spy)
        assert main(["eval", "--config", config, "--demos", str(demo_path), "--weights",
                     str(weights_path), "--trials", "2", "--out", str(tmp_path / "m")]) == 0

        scenario = load_scenario(config)
        p0, p1 = scenario.position_indices

        def agent_0_at_closest_approach(states):
            t = np.argmin(np.linalg.norm(states[:, p0] - states[:, p1], axis=1))
            return states[t, p0]

        demos = trajio.read_trajectories(demo_path, scenario.state_dim, scenario.action_dims)
        cold = solve_ece(scenario.make_game(weights), config=scenario.solver_config)
        assert np.all(agent_0_at_closest_approach(np.mean(demos.states, axis=0)) > 0.0)
        assert np.all(agent_0_at_closest_approach(solutions[0].policies.nominal_states) > 0.0)
        assert np.all(agent_0_at_closest_approach(cold.policies.nominal_states) < 0.0)


class TestValidate:
    def test_valid_file_passes(self, tmp_path, lq_config):
        out = tmp_path / "demos.csv"
        main(["gen-demos", "--config", lq_config, "--trials", "2", "--seed", "1",
              "--out", str(out)])
        assert main(["validate", "--config", lq_config, "--trajectories", str(out)]) == 0

    def test_corrupted_file_fails(self, tmp_path, lq_config, capsys):
        out = tmp_path / "demos.csv"
        main(["gen-demos", "--config", lq_config, "--trials", "2", "--seed", "1",
              "--out", str(out)])
        lines = out.read_text().splitlines()
        del lines[5]
        out.write_text("\n".join(lines) + "\n")
        assert main(["validate", "--config", lq_config, "--trajectories", str(out)]) == 1


@pytest.fixture(scope="module")
def input_files(tmp_path_factory, lq_config):
    """A valid lq demo file, a missing path and a config with a malformed value."""
    root = tmp_path_factory.mktemp("inputs")
    demos = root / "demos.csv"
    assert main(["gen-demos", "--config", lq_config, "--trials", "2", "--seed", "1",
                 "--out", str(demos)]) == 0
    cfg = json.loads(open(lq_config).read())
    cfg["learner"]["learning_rate"] = None
    bad_config = root / "null_learning_rate.json"
    bad_config.write_text(json.dumps(cfg))
    cfg["learner"]["learning_rate"] = float("nan")
    nan_config = root / "nan_learning_rate.json"
    nan_config.write_text(json.dumps(cfg))
    cfg["learner"]["learning_rate"] = -0.1
    negative_lr_config = root / "negative_learning_rate.json"
    negative_lr_config.write_text(json.dumps(cfg))
    cfg["learner"]["learning_rate"] = float("inf")
    inf_lr_config = root / "inf_learning_rate.json"
    inf_lr_config.write_text(json.dumps(cfg))
    cfg["learner"]["learning_rate"] = 0.2
    cfg["horizon"] = str(cfg["horizon"])
    string_config = root / "string_horizon.json"
    string_config.write_text(json.dumps(cfg))
    cfg["horizon"] = int(cfg["horizon"])
    cfg["noise"] = {"kind": "matrix", "gain": [[1.0]], "covariance": [[1.0]]}
    short_gain_config = root / "short_gain.json"
    short_gain_config.write_text(json.dumps(cfg))
    # The same trials one step shorter, and one step longer (last row repeated).
    horizon = load_scenario(lq_config).horizon
    header, *rows = demos.read_text().splitlines()
    short, long = [header], [header]
    for row in rows:
        trial, t, *values = row.split(",")
        long.append(row)
        if int(t) < horizon:
            short.append(row)
        else:
            long.append(",".join([trial, str(horizon + 1), *values]))
    short_demos = root / "short_demos.csv"
    short_demos.write_text("\n".join(short) + "\n")
    long_demos = root / "long_demos.csv"
    long_demos.write_text("\n".join(long) + "\n")
    list_weights = root / "list_weights.json"
    list_weights.write_text("[1, 2]")
    null_weights = root / "null_weights.json"
    null_weights.write_text('{"weights": [null, [1, 1]]}')
    string_weights = root / "string_weights.json"
    string_weights.write_text('{"weights": [["1.0", "1"], ["1.0", "1"]]}')
    lines = demos.read_bytes().split(b"\n")
    lines[3] = lines[3].replace(b",", b",\xff", 1)
    not_utf8_demos = root / "not_utf8_demos.csv"
    not_utf8_demos.write_bytes(b"\n".join(lines))
    # A number longer than the csv module's field size limit, then a malformed row.
    lines = demos.read_text().splitlines()
    cells = lines[3].split(",")
    cells[4] = "0." + "1" * 140001
    lines[3] = ",".join(cells)
    lines[6] = "not,a,number"
    huge_cell_demos = root / "huge_cell_demos.csv"
    huge_cell_demos.write_text("\n".join(lines) + "\n")
    # Nesting far deeper than the interpreter's recursion limit.
    deep = "[" * 200_000 + "]" * 200_000
    deep_config = root / "deep_config.json"
    deep_config.write_text(deep)
    deep_weights = root / "deep_weights.json"
    deep_weights.write_text('{"weights": ' + deep + "}")
    return {"dir": str(root), "demos": str(demos), "missing": str(root / "missing.csv"),
            "bad_config": str(bad_config), "nan_config": str(nan_config),
            "negative_lr_config": str(negative_lr_config), "inf_lr_config": str(inf_lr_config),
            "string_config": str(string_config), "short_demos": str(short_demos),
            "long_demos": str(long_demos), "list_weights": str(list_weights),
            "null_weights": str(null_weights), "string_weights": str(string_weights),
            "not_utf8_demos": str(not_utf8_demos), "short_gain_config": str(short_gain_config),
            "huge_cell_demos": str(huge_cell_demos), "deep_config": str(deep_config),
            "deep_weights": str(deep_weights), "out": str(root / "out")}


# (command with {placeholders} for input_files and {lq}, expected exit code).
# The ids are explicit, so removing or editing an entry renames no other test.
INPUT_ERRORS = [
    pytest.param(["validate", "--config", "{missing}", "--trajectories", "{demos}"], 2,
                 id="command0-2"),
    pytest.param(["validate", "--config", "{dir}", "--trajectories", "{demos}"], 2,
                 id="command1-2"),
    pytest.param(["gen-demos", "--config", "{bad_config}", "--trials", "1", "--out", "{out}"], 2,
                 id="command2-2"),
    pytest.param(["learn", "--config", "{negative_lr_config}", "--demos", "{demos}",
                  "--out-weights", "{out}"], 2, id="command3-2"),
    pytest.param(["learn", "--config", "{lq}", "--demos", "{missing}", "--out-weights", "{out}"], 1,
                 id="command4-1"),
    pytest.param(["validate", "--config", "{lq}", "--trajectories", "{missing}"], 1,
                 id="command5-1"),
    pytest.param(["eval", "--config", "{lq}", "--demos", "{demos}", "--weights", "{missing}",
                  "--trials", "1", "--out", "{out}"], 1, id="command6-1"),
    pytest.param(["learn", "--config", "{nan_config}", "--demos", "{demos}",
                  "--out-weights", "{out}"], 2, id="command7-2"),
    pytest.param(["gen-demos", "--config", "{string_config}", "--trials", "1", "--out", "{out}"], 2,
                 id="command8-2"),
    pytest.param(["eval", "--config", "{lq}", "--demos", "{long_demos}", "--trials", "1",
                  "--out", "{out}"], 1, id="command9-1"),
    pytest.param(["eval", "--config", "{lq}", "--demos", "{short_demos}", "--trials", "1",
                  "--out", "{out}"], 1, id="command10-1"),
    pytest.param(["eval", "--config", "{lq}", "--demos", "{demos}", "--weights", "{list_weights}",
                  "--trials", "1", "--out", "{out}"], 1, id="command11-1"),
    pytest.param(["validate", "--config", "{lq}", "--trajectories", "{not_utf8_demos}"], 1,
                 id="command12-1"),
    pytest.param(["solve", "--config", "{short_gain_config}", "--out-policy", "{out}"], 2,
                 id="command13-2"),
    pytest.param(["validate", "--config", "{lq}", "--trajectories", "{huge_cell_demos}"], 1,
                 id="command14-1"),
    pytest.param(["eval", "--config", "{lq}", "--demos", "{demos}", "--weights", "{null_weights}",
                  "--trials", "1", "--out", "{out}"], 1, id="command15-1"),
    pytest.param(["eval", "--config", "{lq}", "--demos", "{demos}", "--weights", "{string_weights}",
                  "--trials", "1", "--out", "{out}"], 1, id="command16-1"),
    pytest.param(["learn", "--config", "{inf_lr_config}", "--demos", "{demos}",
                  "--out-weights", "{out}"], 2, id="command17-2"),
    pytest.param(["validate", "--config", "{deep_config}", "--trajectories", "{demos}"], 2,
                 id="deep-config-2"),
    pytest.param(["eval", "--config", "{lq}", "--demos", "{demos}", "--weights", "{deep_weights}",
                  "--trials", "1", "--out", "{out}"], 1, id="deep-weights-1"),
]


@pytest.mark.parametrize("command, code", INPUT_ERRORS)
def test_input_error_exit_code_without_traceback(command, code, input_files, lq_config):
    args = [a.format(lq=lq_config, **input_files) for a in command]
    proc = subprocess.run([sys.executable, "-m", "ecegames.cli", *args],
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    if "{missing}" in command:
        assert input_files["missing"] in proc.stderr
    assert not Path(input_files["out"]).exists()


# (command, the output path it cannot write): output flags pointed into a
# missing directory, and an eval --out under a regular file.  {ok} is a
# writable path for a command's other output.
OUTPUT_ERRORS = [
    pytest.param(["solve", "--out-policy", "{missing_dir}/p.json"], "{missing_dir}/p.json",
                 id="solve-out-policy"),
    pytest.param(["solve", "--out-policy", "{ok}.json", "--trace", "{missing_dir}/t.csv"],
                 "{missing_dir}/t.csv", id="solve-trace"),
    pytest.param(["gen-demos", "--trials", "1", "--out", "{missing_dir}/d.csv"],
                 "{missing_dir}/d.csv", id="gen-demos-out"),
    pytest.param(["learn", "--demos", "{demos}", "--out-weights", "{missing_dir}/w.json"],
                 "{missing_dir}/w.json", id="learn-out-weights"),
    pytest.param(["learn", "--demos", "{demos}", "--out-weights", "{ok}.json",
                  "--trace", "{missing_dir}/t.csv"], "{missing_dir}/t.csv", id="learn-trace"),
    pytest.param(["eval", "--demos", "{demos}", "--trials", "1", "--out", "{demos}/out"],
                 "{demos}/out", id="eval-out-under-file"),
]


@pytest.mark.parametrize("command, unwritable", OUTPUT_ERRORS)
def test_unwritable_output_is_one_error_line(command, unwritable, input_files, lq_config,
                                             tmp_path):
    fields = {"missing_dir": tmp_path / "missing", "ok": tmp_path / "ok",
              "demos": input_files["demos"]}
    args = [a.format(**fields) for a in command]
    proc = subprocess.run([sys.executable, "-m", "ecegames.cli", *args, "--config", lq_config],
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error: {unwritable.format(**fields)}: cannot write (")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith(")\n")
