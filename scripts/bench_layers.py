"""Per-call times of the solver and sampler layers on the shipped configs.

    python3 scripts/bench_layers.py [--parent REV]

For every config in ``configs/``, for ``lq_tracking`` with unicycle
dynamics (``lq_tracking_unicycle``, so that both paths of ``simulate_mean``
are timed) and for agent 0's reduced game of ``two_agent_crossing``
(``two_agent_crossing_reduced``: ``pin_other_agents`` replaying the
converged nominal, with agent 0's converged law as its policies, so that the
reduced games of the independent-mode learner are timed), it solves the game
under its true weights and times, per call:

- ``stage_game_around`` the converged nominal (linearize, quadratize and
  the ``LqStageGame`` layout);
- ``quadratize`` at that nominal alone (cost expansion and PSD projection);
- ``cost_derivatives``, every agent's cost-model state gradient and Hessian
  along that nominal (the feature sums inside ``quadratize``);
- ``refresh_stage``, the stage game that an iteration after the first
  builds there: for dynamics with ``linear_maps`` the stage game of the
  first iteration with its costs laid out again (``LqStageGame.with_costs``
  of ``quadratize``), for other dynamics the whole ``stage_game_around``;
- ``solve_lq_ece`` on that stage game;
- ``simulate_mean`` of the converged policies;
- ``rollout_batch`` of 50, 200 and 1000 trials from seed 0 (1000 is the
  ``--trials`` of the ``sample-eval`` benchmark workload);
- ``feature_expectation``, one learner expectation of agent 0's feature
  sums on the converged policies, a call of
  ``irl.estimate_feature_expectation`` as the learner makes it after its
  solve (with the reduced features on a reduced game): the closed form
  under ``rollout_moments`` on every dynamics;
- a cold ``solve_ece``;
- ``solve_ece_demo_start``, ``solve_ece`` from the demo start that ``learn``
  and ``eval`` use (``irl.demo_start``: zero feedback around the mean
  actions of 200 rollouts of the converged policies from seed 1000, all
  agents' or, on the reduced game, agent 0's).

After the table it prints the iterations of both ``solve_ece`` layers per
config.

One more case, ``ladder_60``, times ``solve_lq_ece`` on a 60-stage
two-agent game whose stage t = 30 has condition about 4e13, so that its
backward pass needs the regularization ladder, which no shipped config does:
the pass without the ladder fails its screen, and the whole pass of 60
stages reruns with the ladder from the terminal stage.

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
import dataclasses
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_pairs import extract

ROOT = Path(__file__).resolve().parent.parent
TRIALS = (50, 200, 1000)
BUDGET = 0.5  # seconds per layer and round
ROUNDS = 10
LAYERS = (
    "stage_game_around", "quadratize", "cost_derivatives", "refresh_stage", "solve_lq_ece",
    "simulate_mean", *(f"rollout_batch({k})" for k in TRIALS), "feature_expectation",
    "solve_ece", "solve_ece_demo_start",
)
SOLVES = ("solve_ece", "solve_ece_demo_start")
DEMO_TRIALS, DEMO_SEED = 200, 1000
LADDER = "ladder_60"
REDUCED = "two_agent_crossing_reduced"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision to compare against")
    return parser.parse_args(argv)


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


def scenario_cases() -> dict[str, tuple[dict, int | None]]:
    """Every timed case by name: its config and the agent whose reduced game
    is timed, or None for the joint game.  The cases are the configs of
    ``configs/``, the unicycle variant of ``lq_tracking`` and agent 0's
    reduced game of ``two_agent_crossing``."""
    docs = {c.stem: json.loads(c.read_text()) for c in sorted((ROOT / "configs").glob("*.json"))}
    docs["lq_tracking_unicycle"] = {**docs["lq_tracking"], "dynamics": {"kind": "unicycle"}}
    cases = {name: (doc, None) for name, doc in docs.items()}
    cases[REDUCED] = (docs["two_agent_crossing"], 0)
    return cases


def layer_calls(pkg, doc: dict, agent: int | None) -> dict:
    """One no-argument call per layer on config ``doc``, made with package
    ``pkg``; on agent ``agent``'s reduced game unless ``agent`` is None."""
    scenario = importlib.import_module(f"{pkg.__name__}.config").parse_scenario(doc)
    game = scenario.make_game(scenario.true_weights())
    solver = scenario.solver_config
    policies = pkg.solve_ece(game, config=solver).policies
    # The start irl.demo_start builds, made here so that a revision without it
    # times the same solve.
    demo_actions = [np.mean(a, axis=0) for a in
                    pkg.rollout_batch(game, policies, DEMO_TRIALS, DEMO_SEED).actions]
    features = scenario.basis.agents[agent or 0]

    if agent is not None:
        replay = pkg.simulate_mean(game, policies).actions
        game = pkg.pin_other_agents(game, agent, replay)
        features = pkg.irl.reduced_features(features)
        own = slice(agent, agent + 1)
        policies = pkg.AffineGaussianPolicySet(
            gains=policies.gains[own],
            offsets=policies.offsets[own],
            covariances=policies.covariances[own],
            nominal_states=policies.nominal_states,
            nominal_actions=policies.nominal_actions[own],
        )
        demo_actions = demo_actions[own]
    start = dataclasses.replace(
        pkg.AffineGaussianPolicySet.zero(game.horizon, game.state_dim, game.action_dims),
        nominal_actions=tuple(demo_actions),
    )
    nominal = pkg.simulate_mean(game, policies)
    stage = pkg.ilq.stage_game_around(game, nominal)
    steps = np.arange(1, game.horizon + 1)

    def cost_derivatives():
        for cost in game.costs:
            cost.state_gradient(steps, nominal.states)
            cost.state_hessian(steps, nominal.states)

    def refresh_stage():
        if game.dynamics.linear_maps is None:
            return pkg.ilq.stage_game_around(game, nominal)
        return stage.with_costs(*pkg.ilq.quadratize(game, nominal))

    return dict(zip(LAYERS, (
        lambda: pkg.ilq.stage_game_around(game, nominal),
        lambda: pkg.ilq.quadratize(game, nominal),
        cost_derivatives,
        refresh_stage,
        lambda: pkg.solve_lq_ece(stage, game.temperatures),
        lambda: pkg.simulate_mean(game, policies),
        *(lambda k=k: pkg.rollout_batch(game, policies, k, 0) for k in TRIALS),
        lambda: pkg.irl.estimate_feature_expectation(game, features, policies),
        lambda: pkg.solve_ece(game, config=solver),
        lambda: pkg.solve_ece(game, init=start, config=solver),
    )))


def ladder_calls(pkg) -> dict:
    """The ``solve_lq_ece`` call of the ``ladder_60`` case, made with package
    ``pkg``.  Two agents with one action each in 2-D: stage t = 31 has
    A = B = 0, so its value is its Q, and stage t = 30 has A = 0 and unit
    action columns, so its stage matrix is I + [[Z^1_00, Z^1_01],
    [Z^2_10, Z^2_11]] = [[1e5, 1e5], [1e5, 1e5 + 1e-8]]."""
    rng = np.random.default_rng(41)
    T, n, k = 61, 2, 29
    A = 0.5 * np.eye(n) + 0.1 * rng.normal(size=(T - 1, n, n))
    B = [0.5 * rng.normal(size=(T - 1, n, 1)) for _ in range(2)]
    Q = [np.tile(np.eye(n), (T, 1, 1)) for _ in range(2)]
    l = [0.3 * rng.normal(size=(T, n)) for _ in range(2)]
    A[k] = A[k + 1] = 0.0
    for i, e in enumerate(np.eye(n)):
        B[i][k] = e[:, None]
        B[i][k + 1] = 0.0
        l[i][k + 1] = e
    Q[0][k + 1] = [[1e5 - 1.0, 1e5], [1e5, 0.0]]
    Q[1][k + 1] = [[0.0, 1e5], [1e5, 1e5 + 1e-8 - 1.0]]
    R = ((np.eye(1), 0.1 * np.eye(1)), (0.2 * np.eye(1), np.eye(1)))
    game = pkg.LqStageGame(A=A, B=tuple(B), Q=tuple(Q), l=tuple(l), R=R)
    return {"solve_lq_ece": lambda: pkg.solve_lq_ece(game)}


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
    cases = scenario_cases()
    with tempfile.TemporaryDirectory(prefix="bench_layers_") as tmp:
        trees = {"change": ROOT}
        if args.parent:
            extract(args.parent, Path(tmp))
            trees = {"parent": Path(tmp), "change": ROOT}
        calls = {}
        for side, tree in trees.items():
            pkg = load(tree, f"ecegames_{side}")
            calls[side] = {name: layer_calls(pkg, *case) for name, case in cases.items()}
            calls[side][LADDER] = ladder_calls(pkg)
        # times[config][layer][side]: every call's wall time, turn by turn.
        times = {name: {layer: {side: [] for side in trees} for layer in layers}
                 for name, layers in calls["change"].items()}
        for i in range(ROUNDS):
            for name, layers in times.items():
                for k, layer in enumerate(layers):
                    order = list(trees)[:: 1 if (i + k) % 2 == 0 else -1]
                    for turn in turns([calls[side][name][layer] for side in order], BUDGET):
                        for side, t in zip(order, turn):
                            times[name][layer][side].append(t)
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
    print("\nsolver iterations per solve")
    print(f"{'config':28s}" + "".join(f" {layer:>20s}" for layer in SOLVES))
    for config, layers in calls["change"].items():
        if SOLVES[0] in layers:
            its = {layer: len(layers[layer]().trace) for layer in SOLVES}
            summary[config]["iterations"] = its
            print(f"{config:28s}" + "".join(f" {its[x]:20d}" for x in SOLVES))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
