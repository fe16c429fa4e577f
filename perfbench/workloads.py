"""The benchmark's workloads and their seeded inputs.

Each workload is a closed loop with one client: the harness calls
``ecegames.cli.main`` in-process, and the next command starts when the
previous one has returned and its outputs have been checked.  Commands are
grouped in rounds, one pass through the workload's alternation, and the
timed phase always runs whole rounds.

* ``solve-mix``: ``solve`` on ``two_agent_crossing`` then on
  ``three_agent_ring``.  Each command gets its own config whose true weights
  are the shipped ones times log-normal jitter (sigma 0.2).  The jitter is
  drawn once, from ``POOL_SEED``, into a pool of ``POOL_SIZE`` configs per
  scenario with stored reference solutions; the workload seed orders the
  pool.  Solver only: no sampling, little CSV.
* ``sample-eval``: ``gen-demos --trials 1000``, ``validate`` and ``eval
  --trials 1000`` on ``lq_tracking``, then the same on its unicycle variant.
  Sampling, CSV I/O and metrics; the LQ solves converge in two iterations.
* ``learn-crossing``: capped ``learn --mode joint`` then ``--mode
  independent`` on ``two_agent_crossing``, from 200 demos made in set-up
  from the fixed ``LEARN_DEMO_SEED``; the workload seed picks the learner
  seeds.  Warm-started solves interleaved with Monte-Carlo rollouts.
"""

from __future__ import annotations

import io
import json
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable

import numpy as np

from ecegames import cli, parse_scenario

import checks

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

POOL_SEED = 2110  # arXiv 2110.01027
POOL_SIZE = 24
JITTER_SIGMA = 0.2
SOLVE_SCENARIOS = ("two_agent_crossing", "three_agent_ring")

SAMPLE_TRIALS = 1000
SAMPLE_SCENARIOS = ("lq_tracking", "lq_tracking_unicycle")

LEARN_SWEEPS = 3
LEARN_DEMO_TRIALS = 200
LEARN_DEMO_SEED = 900_000
LEARN_MODES = ("joint", "independent")


def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def shipped_config(name: str) -> dict:
    with open(CONFIGS / f"{name}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: Path, doc: dict) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return path


def checkpoints(horizon: int) -> list[int]:
    """0-based steps at which states are compared with a stored reference."""
    return sorted(set(range(0, horizon, 10)) | {horizon - 1})


def jittered_pool(name: str) -> list[dict]:
    """``POOL_SIZE`` configs of scenario ``name`` with jittered true weights."""
    rng = np.random.default_rng([POOL_SEED, SOLVE_SCENARIOS.index(name)])
    base = shipped_config(name)
    pool = []
    for k in range(POOL_SIZE):
        doc = json.loads(json.dumps(base))
        doc["name"] = f"{name}_jitter{k}"
        for agent in doc["agents"]:
            w = np.asarray(agent["true_weights"])
            agent["true_weights"] = (w * np.exp(JITTER_SIGMA * rng.standard_normal(w.size))).tolist()
        pool.append(doc)
    return pool


def unicycle_variant() -> dict:
    """``lq_tracking`` with the same agents driven by unicycle dynamics."""
    doc = shipped_config("lq_tracking")
    doc["name"] = "lq_tracking_unicycle"
    doc["dynamics"] = {"kind": "unicycle"}
    return doc


def capped_learner() -> dict:
    """``two_agent_crossing`` with learning capped at ``LEARN_SWEEPS`` sweeps."""
    doc = shipped_config("two_agent_crossing")
    doc["learner"]["max_outer_iterations"] = LEARN_SWEEPS
    return doc


def execute(argv: list[str]) -> tuple[int | None, str, str]:
    """Run one CLI command in-process; (exit code or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


@dataclass
class Command:
    kind: str
    argv: list[str]
    check: Callable[[int | None, str], int]  # (exit code, stdout) -> work count


@dataclass
class Record:
    round: int
    kind: str
    seconds: float
    work: int
    error: str | None


class Workload:
    """Inputs live in ``work_dir``; ``prepare`` writes them, the rest only reads."""

    name = ""

    def __init__(self, work_dir: Path, seed: int, reference: dict):
        self.dir = work_dir
        self.reference = reference
        self.rng = np.random.default_rng(seed)

    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> Command:
        raise NotImplementedError

    def round(self, r: int) -> list[Command]:
        raise NotImplementedError

    def details(self, records: list[Record]) -> dict:
        raise NotImplementedError


def _tail(values: list[float]) -> dict | None:
    """Highest whole percentile above the median with at least ten samples beyond it."""
    n = len(values)
    pct = int(np.floor(100.0 * (n - 10) / n))
    if pct <= 50:
        return None
    return {"percentile": pct, "value": float(np.percentile(values, pct)), "samples": n}


def _seconds(records: list[Record], kind: str) -> list[float]:
    return [r.seconds for r in records if r.kind == kind]


class SolveMix(Workload):
    name = "solve-mix"

    def __init__(self, work_dir, seed, reference):
        super().__init__(work_dir, seed, reference)
        self.order = {name: self.rng.permutation(POOL_SIZE) for name in SOLVE_SCENARIOS}

    def _config(self, name: str, k: int) -> Path:
        return self.dir / f"{name}_{k}.json"

    def prepare(self) -> None:
        for name in SOLVE_SCENARIOS:
            for k, doc in enumerate(jittered_pool(name)):
                write_json(self._config(name, k), doc)
        write_json(self.dir / "warm_up.json", shipped_config(SOLVE_SCENARIOS[0]))

    def _solve(self, name: str, config: Path, reference_states: list | None) -> Command:
        policy, trace = self.dir / "policy.json", self.dir / "trace.csv"
        argv = ["solve", "--config", str(config), "--out-policy", str(policy), "--trace", str(trace)]
        steps = checkpoints(shipped_config(name)["horizon"])

        def check(rc, stdout):
            if reference_states is None:  # warm-up on the shipped config
                return checks.check_exit(rc, 0, 1)
            return checks.check_solve(rc, stdout, config, policy, trace, steps, reference_states)

        return Command(f"solve:{name}", argv, check)

    def warm_up(self) -> Command:
        return self._solve(SOLVE_SCENARIOS[0], self.dir / "warm_up.json", None)

    def round(self, r: int) -> list[Command]:
        commands = []
        for name in SOLVE_SCENARIOS:
            k = int(self.order[name][r % POOL_SIZE])
            states = self.reference["solve"][name][k]
            commands.append(self._solve(name, self._config(name, k), states))
        return commands

    def details(self, records):
        times = [r.seconds for r in records]
        out = {
            "solve_p50_s": median(times),
            "solve_tail_s": _tail(times),
            "solve_samples": len(times),
            "iterations_per_solve": sum(r.work for r in records) / len(records),
        }
        for name in SOLVE_SCENARIOS:
            out[f"solve_p50_s:{name}"] = median(_seconds(records, f"solve:{name}"))
        return out


class SampleEval(Workload):
    name = "sample-eval"

    def __init__(self, work_dir, seed, reference):
        super().__init__(work_dir, seed, reference)
        seeds = self.rng.integers(0, 10**6, size=(len(SAMPLE_SCENARIOS), 2))
        self.seeds = {name: [int(s) for s in seeds[i]] for i, name in enumerate(SAMPLE_SCENARIOS)}
        self.docs = {"lq_tracking": shipped_config("lq_tracking")}
        self.docs["lq_tracking_unicycle"] = unicycle_variant()
        self.digests: dict = {}

    def _config(self, name: str) -> Path:
        return self.dir / f"{name}.json"

    def prepare(self) -> None:
        for name, doc in self.docs.items():
            write_json(self._config(name), doc)

    def warm_up(self) -> Command:
        argv = ["gen-demos", "--config", str(self._config("lq_tracking")), "--trials", "20"]
        argv += ["--seed", "0", "--out", str(self.dir / "warm_up.csv")]
        return Command("gen-demos", argv, lambda rc, stdout: checks.check_exit(rc, 0, 20))

    def _cycle(self, name: str) -> list[Command]:
        scenario = parse_scenario(self.docs[name])
        config, horizon = str(self._config(name)), scenario.horizon
        header = checks.trajectory_header(scenario.state_dim, scenario.action_dims)
        features = [len(feats) for feats in scenario.basis.agents]
        demo_seed, eval_seed = self.seeds[name]
        demos, out_dir = self.dir / f"{name}_demos.csv", self.dir / f"{name}_eval"
        reference = self.reference["sample"][name]
        trials = str(SAMPLE_TRIALS)
        return [
            Command(
                "gen-demos",
                ["gen-demos", "--config", config, "--trials", trials, "--seed", str(demo_seed),
                 "--out", str(demos)],
                lambda rc, stdout: checks.check_gen_demos(
                    rc, demos, SAMPLE_TRIALS, horizon, header, self.digests,
                    (name, demo_seed), reference,
                ),
            ),
            Command(
                "validate",
                ["validate", "--config", config, "--trajectories", str(demos)],
                lambda rc, stdout: checks.check_validate(rc, stdout, SAMPLE_TRIALS, horizon),
            ),
            Command(
                "eval",
                ["eval", "--config", config, "--demos", str(demos), "--trials", trials,
                 "--seed", str(eval_seed), "--out", str(out_dir)],
                lambda rc, stdout: checks.check_eval(rc, out_dir, features, horizon, SAMPLE_TRIALS),
            ),
        ]

    def round(self, r: int) -> list[Command]:
        return [command for name in SAMPLE_SCENARIOS for command in self._cycle(name)]

    def details(self, records):
        def rate(kind):
            return sum(r.work for r in records if r.kind == kind) / sum(_seconds(records, kind))

        evals = _seconds(records, "eval")
        return {
            "gen_demos_traj_per_s": rate("gen-demos"),
            "validate_rows_per_s": rate("validate"),
            "eval_p50_s": median(evals),
            "eval_samples": len(evals),
            "gen_demos_samples": len(_seconds(records, "gen-demos")),
            "validate_samples": len(_seconds(records, "validate")),
        }


class LearnCrossing(Workload):
    name = "learn-crossing"

    def __init__(self, work_dir, seed, reference):
        super().__init__(work_dir, seed, reference)
        self.learn_seed = int(self.rng.integers(0, 10**6))
        self.agents = capped_learner()["num_agents"]

    def prepare(self) -> None:
        config = write_json(self.dir / "learner.json", capped_learner())
        argv = ["gen-demos", "--config", str(config), "--trials", str(LEARN_DEMO_TRIALS),
                "--seed", str(LEARN_DEMO_SEED), "--out", str(self.dir / "demos.csv")]
        rc, _, err = execute(argv)
        if rc != 0:
            raise RuntimeError(f"set-up demos: exit code {rc}: {err.strip()}")

    def _learn(self, mode: str, seed: int) -> Command:
        weights, trace = self.dir / f"weights_{mode}.json", self.dir / f"learn_{mode}.csv"
        argv = ["learn", "--config", str(self.dir / "learner.json"), "--demos",
                str(self.dir / "demos.csv"), "--mode", mode, "--seed", str(seed),
                "--out-weights", str(weights), "--trace", str(trace)]
        reference = self.reference["learn"][mode]
        return Command(
            f"learn:{mode}",
            argv,
            lambda rc, stdout: checks.check_learn(
                rc, stdout, weights, trace, self.agents, LEARN_SWEEPS, reference
            ),
        )

    def warm_up(self) -> Command:
        return self._learn("independent", self.learn_seed + 10**6)

    def round(self, r: int) -> list[Command]:
        return [self._learn(mode, self.learn_seed + 1000 * r) for mode in LEARN_MODES]

    def details(self, records):
        out = {}
        for mode in LEARN_MODES:
            per_update = [r.seconds / r.work for r in records if r.kind == f"learn:{mode}" and r.work]
            out[f"learn_{mode}_s_per_update"] = median(per_update) if per_update else None
            out[f"learn_{mode}_samples"] = len(per_update)
        return out


WORKLOADS = {w.name: w for w in (SolveMix, SampleEval, LearnCrossing)}


def run_command(command: Command, records: list[Record], r: int, tracer=None) -> float:
    """Execute and check one command; append its record and return its wall time."""
    if tracer is not None:
        tracer.next_command()
    start = perf_counter()
    rc, stdout, stderr = execute(command.argv)
    seconds = perf_counter() - start
    with tracer.paused() if tracer is not None else nullcontext():
        try:
            work, error = command.check(rc, stdout), None
        except checks.CheckFailed as exc:
            work, error = 0, f"{command.kind}: {exc}; stderr: {stderr.strip()[-500:]}"
        except Exception as exc:  # a malformed output that the check could not parse
            work, error = 0, f"{command.kind}: {type(exc).__name__}: {exc}"
    records.append(Record(r, command.kind, seconds, work, error))
    return seconds


def run_timed(workload: Workload, seconds: float, tracer=None, before=None) -> list[Record]:
    """Whole rounds until their command time reaches ``seconds`` (at least one).
    ``before``, if given, is called untimed before each command."""
    records: list[Record] = []
    elapsed, r = 0.0, 0
    while r == 0 or elapsed < seconds:
        for command in workload.round(r):
            if before is not None:
                before()
            elapsed += run_command(command, records, r, tracer)
        r += 1
    return records
