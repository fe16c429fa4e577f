"""Span tracing of the ecegames layers, from outside the program.

:func:`install` wraps the public functions of each layer module and rebinds
every reference to them across the loaded ``ecegames`` modules (the home
module and every ``from .x import y`` site), so a call made anywhere in the
program opens a span.  Spans are kept in memory as (name, start, end,
parent, command id) and written out once the run ends.  A span's self time
is its duration minus the time its child spans cover; calls are strictly
nested on one thread, so the children's durations simply add up.
"""

from __future__ import annotations

import csv
import functools
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# (layer, attribute in ecegames.<layer>) for every traced function.
TRACED = [
    ("cli", "main"),
    ("config", "load_scenario"),
    ("config", "Scenario.make_game"),
    ("ilq", "linearize"),
    ("ilq", "quadratize"),
    ("ilq", "stage_game_around"),
    ("ilq", "solve_ece"),
    ("lq", "solve_lq_ece"),
    ("simulate", "simulate_mean"),
    ("simulate", "evaluate_cost"),
    ("simulate", "simulate_stochastic"),
    ("simulate", "rollout_batch"),
    ("features", "eval_features"),
    ("game", "pin_other_agents"),
    ("irl", "run_mairl"),
    ("irl", "estimate_feature_expectation"),
    ("metrics", "kl_divergence_per_feature"),
    ("metrics", "goal_distance_stats"),
    ("metrics", "trajectory_rmse"),
    ("trajio", "write_trajectories"),
    ("trajio", "read_trajectories"),
    ("trajio", "write_policy"),
    ("trajio", "write_weights"),
    ("trajio", "write_iteration_trace"),
    ("trajio", "write_learn_trace"),
    ("trajio", "write_kl_table"),
    ("trajio", "write_goal_stats"),
    ("trajio", "write_rmse"),
]

ROOT_SPAN = "bench"

# Spans whose self time is reported under another name; every other span
# reports as "<span>.self_s".
SELF_METRIC = {"cli.main": "cli.self_s", ROOT_SPAN: "bench.self_s"} | {
    f"trajio.{attr}": "trajio.write_other.self_s"
    for layer, attr in TRACED
    if layer == "trajio" and attr not in ("write_trajectories", "read_trajectories")
}


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


def _self_metric(name: str) -> str:
    return SELF_METRIC.get(name, f"{name}.self_s")


# Per-layer metrics in report order: (name, unit, better).
PER_LAYER = [
    (m, "s", "lower") for m in dict.fromkeys(_self_metric(span_name(*t)) for t in TRACED)
] + [
    ("bench.self_s", "s", "lower"),
    ("ilq.solve_ece.calls", "count", "lower"),
    ("ilq.iterations", "count", "lower"),
    ("ilq.iterations_per_solve", "count", "lower"),
    ("ilq.line_search.rollouts", "count", "lower"),
    ("ilq.line_search.accept_ratio", "ratio", "higher"),
    ("lq.solve_lq_ece.calls", "count", "lower"),
    ("lq.regularized_stages", "count", "lower"),
    ("lq.max_condition", "ratio", "lower"),
    ("simulate.simulate_stochastic.calls", "count", "lower"),
    ("features.eval_features.calls", "count", "lower"),
    ("irl.agent_updates", "count", "higher"),
    ("irl.mc_samples", "count", "lower"),
    ("irl.solve_share", "ratio", "lower"),
    ("irl.solve_fallbacks", "count", "lower"),
    ("game.pin_other_agents.calls", "count", "lower"),
    ("trajio.write_trajectories.bytes", "B", "lower"),
    ("trajio.read_trajectories.rows", "count", "higher"),
    ("traced.total_s", "s", "lower"),
    ("traced.commands", "count", "higher"),
    ("traced.ops_per_s", "1/s", "higher"),
]


def _count_result(counts: Counter, name: str, args, result) -> None:
    """Work counts read off a traced call's arguments and result."""
    if name == "ilq.solve_ece":
        counts["ilq.iterations"] += len(result.trace)
    elif name == "lq.solve_lq_ece":
        report = result.report
        counts["lq.regularized_stages"] += int(np.count_nonzero(report.regularization > 0.0))
        if report.condition.size:
            counts["lq.max_condition"] = max(
                counts["lq.max_condition"], float(np.max(report.condition))
            )
    elif name == "irl.run_mairl":
        counts["irl.agent_updates"] += len(result[1].records)
    elif name == "trajio.write_trajectories":
        counts["trajio.write_trajectories.bytes"] += os.path.getsize(args[0])
    elif name == "trajio.read_trajectories":
        counts["trajio.read_trajectories.rows"] += len(result) * result.horizon


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, command id]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._command = 0
        self._paused = False

    def next_command(self) -> None:
        self._command += 1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self._command])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    @contextmanager
    def root(self):
        index = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def paused(self):
        """Calls made here (the harness's own checks) open no spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == "ilq.solve_ece":
                    warm = kwargs.get("init", args[1] if len(args) > 1 else None)
                    if warm is not None and self._inside("irl.run_mairl"):
                        self.counts["irl.solve_fallbacks"] += 1
                    trace = getattr(exc, "trace", None)
                    if trace is not None:
                        self.counts["ilq.iterations"] += len(trace)
                raise
            else:
                _count_result(self.counts, name, args, result)
                return result
            finally:
                self._close(index)

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["name", "start", "end", "parent", "command"])
            writer.writerows(self.spans)

    def metrics(self) -> dict[str, float]:
        """Every :data:`PER_LAYER` metric from the recorded spans and counts."""
        n = len(self.spans)
        names = [s[0] for s in self.spans]
        duration = [s[2] - s[1] for s in self.spans]
        covered = [0.0] * n
        under_learner = [False] * n
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += duration[i]
                under_learner[i] = under_learner[parent]
            under_learner[i] = under_learner[i] or name == "irl.run_mairl"
        out: dict[str, float] = defaultdict(float)
        calls: Counter = Counter(names)
        for i in range(n):
            out[_self_metric(names[i])] += duration[i] - covered[i]
        solves = calls["ilq.solve_ece"]
        iterations = self.counts["ilq.iterations"]
        rollouts = sum(
            1
            for i in range(n)
            if names[i] == "simulate.simulate_mean"
            and self.spans[i][3] >= 0
            and names[self.spans[i][3]] == "ilq.solve_ece"
        )
        learner_time = sum(duration[i] for i in range(n) if names[i] == "irl.run_mairl")
        learner_solve = sum(
            duration[i] for i in range(n) if names[i] == "ilq.solve_ece" and under_learner[i]
        )
        command_time = sum(duration[i] for i in range(n) if names[i] == "cli.main")
        out.update(
            {
                "ilq.solve_ece.calls": solves,
                "ilq.iterations": iterations,
                "ilq.iterations_per_solve": iterations / solves if solves else 0.0,
                "ilq.line_search.rollouts": rollouts,
                "ilq.line_search.accept_ratio": iterations / rollouts if rollouts else 0.0,
                "lq.solve_lq_ece.calls": calls["lq.solve_lq_ece"],
                "simulate.simulate_stochastic.calls": calls["simulate.simulate_stochastic"],
                "features.eval_features.calls": calls["features.eval_features"],
                "irl.mc_samples": sum(
                    1
                    for i in range(n)
                    if names[i] == "simulate.simulate_stochastic" and under_learner[i]
                ),
                "irl.solve_share": learner_solve / learner_time if learner_time else 0.0,
                "game.pin_other_agents.calls": calls["game.pin_other_agents"],
                "traced.total_s": sum(duration[i] for i in range(n) if names[i] == ROOT_SPAN),
                "traced.commands": calls["cli.main"],
                "traced.ops_per_s": calls["cli.main"] / command_time if command_time else 0.0,
            }
        )
        for key in (
            "lq.regularized_stages",
            "lq.max_condition",
            "irl.agent_updates",
            "irl.solve_fallbacks",
            "trajio.write_trajectories.bytes",
            "trajio.read_trajectories.rows",
        ):
            out[key] = self.counts[key]
        return {name: float(out[name]) for name, _, _ in PER_LAYER}


@contextmanager
def install(tracer: Tracer):
    """Route every traced function through ``tracer`` until the block exits."""
    import ecegames  # noqa: F401  (loads every submodule)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ecegames"]
    undo = []
    try:
        for layer, attr in TRACED:
            owner = sys.modules[f"ecegames.{layer}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = tracer.wrap(span_name(layer, attr), original)
            targets = [(owner, leaf)] + [
                (m, key) for m in modules for key, value in vars(m).items() if value is original
            ]
            for target, key in dict.fromkeys(targets):
                undo.append((target, key, getattr(target, key)))
                setattr(target, key, wrapped)
        yield tracer
    finally:
        for target, key, value in reversed(undo):
            setattr(target, key, value)
