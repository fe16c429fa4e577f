"""Per-call times of the solver and sampler layers on the shipped configs.

    python3 scripts/bench_layers.py [--parent REV]

For every config in ``configs/`` it solves the game under its true weights
and times, per call:

- ``solve_lq_ece`` on the stage game around the converged nominal;
- ``simulate_mean`` of the converged policies;
- ``rollout_batch`` of 200 trials from seed 0;
- a cold ``solve_ece``.

Each of ``ROUNDS`` rounds calls every layer for ``BUDGET`` seconds (at
least 3 calls), with BLAS capped at one thread, and the table shows the least time of one
call over all rounds.  With ``--parent``, revision REV is extracted with
``git archive`` into a temporary directory (removed on exit) and its
package is loaded next to this tree's in the same process.  The two trees
then call each layer in turns, one call each, so a slow phase of the
machine falls on both; the ratio column is the median over all turns of
change time / parent time.  The figures are per call, so unlike the totals
of a time-bounded benchmark run they do not depend on how many rounds a
faster tree fits in.
"""

from __future__ import annotations

import os

# Before numpy is loaded, as perfbench/run.py does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRIALS = 200
BUDGET = 0.5  # seconds per layer and round
ROUNDS = 10
LAYERS = ("solve_lq_ece", "simulate_mean", f"rollout_batch({TRIALS})", "solve_ece")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision to compare against")
    return parser.parse_args(argv)


def extract(rev: str, into: Path) -> None:
    """Write the files of revision ``rev`` under ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def load(tree: Path, name: str):
    """The ``ecegames`` package of ``tree``, imported as module ``name``."""
    package = tree / "src" / "ecegames"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def layer_calls(pkg, config: Path) -> tuple:
    """One no-argument call per layer on ``config``, made with package ``pkg``."""
    scenario = importlib.import_module(f"{pkg.__name__}.config").load_scenario(config)
    game = scenario.make_game(scenario.true_weights())
    solver = scenario.solver_config
    policies = pkg.solve_ece(game, config=solver).policies
    stage = pkg.ilq.stage_game_around(game, pkg.simulate_mean(game, policies))
    return (
        lambda: pkg.solve_lq_ece(stage, game.temperatures),
        lambda: pkg.simulate_mean(game, policies),
        lambda: pkg.rollout_batch(game, policies, TRIALS, 0),
        lambda: pkg.solve_ece(game, config=solver),
    )


def turns(calls: list, budget: float) -> list[list[float]]:
    """Wall times in seconds of turns in which each of ``calls`` is called
    once, in order, taken for ``budget`` seconds (at least 3 turns)."""
    times = []
    end = time.perf_counter() + budget
    while len(times) < 3 or time.perf_counter() < end:
        turn = []
        for call in calls:
            start = time.perf_counter()
            call()
            turn.append(time.perf_counter() - start)
        times.append(turn)
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    configs = sorted((ROOT / "configs").glob("*.json"))
    with tempfile.TemporaryDirectory(prefix="bench_layers_") as tmp:
        trees = {"change": ROOT}
        if args.parent:
            extract(args.parent, Path(tmp))
            trees = {"parent": Path(tmp), "change": ROOT}
        calls = {}
        for side, tree in trees.items():
            pkg = load(tree, f"ecegames_{side}")
            calls[side] = {c.stem: layer_calls(pkg, c) for c in configs}
        # times[config][layer][side]: every call's wall time, turn by turn.
        times = {c.stem: {layer: {side: [] for side in trees} for layer in LAYERS}
                 for c in configs}
        for i in range(ROUNDS):
            for c in configs:
                for k, layer in enumerate(LAYERS):
                    order = list(trees)[:: 1 if (i + k) % 2 == 0 else -1]
                    for turn in turns([calls[side][c.stem][k] for side in order], BUDGET):
                        for side, t in zip(order, turn):
                            times[c.stem][layer][side].append(t)
            print(f"round {i} done", file=sys.stderr, flush=True)
    sides = list(trees)
    print(f"least time per call, {BUDGET:g} s per layer x {ROUNDS} rounds"
          + (f", parent {args.parent}; ratio: median change/parent per turn" if args.parent else ""))
    print(f"{'config':20s} {'layer':20s}" + "".join(f" {s + ' ms':>10s}" for s in sides)
          + ("  change/parent  turns" if args.parent else ""))
    summary = {}
    for config, layers in times.items():
        for layer, by_side in layers.items():
            least = [min(by_side[s]) for s in sides]
            row = dict(zip(sides, least), turns=len(by_side["change"]))
            line = f"{config:20s} {layer:20s}" + "".join(f" {1e3 * t:10.3f}" for t in least)
            if args.parent:
                row["ratio"] = statistics.median(
                    c / p for p, c in zip(by_side["parent"], by_side["change"])
                )
                line += f"  {row['ratio']:13.3f}  {row['turns']:5d}"
            summary.setdefault(config, {})[layer] = row
            print(line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
