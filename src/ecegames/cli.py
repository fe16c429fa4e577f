"""Command-line interface: generate demos, solve, learn, evaluate, validate.

Every command is deterministic given its inputs and ``--seed``; re-running
produces byte-identical outputs.  Exit codes (:func:`main` maps every package
error to one of them and prints a one-line ``error:`` message to stderr):

  0  success.
  1  runtime failure: the equilibrium solve did not converge ("equilibrium
     solve did not converge: ...") or failed; ``learn`` ran out of sweeps
     before its residuals met the tolerance (weights and trace are still
     written); or a ``--demos``, ``--trajectories`` or ``--weights`` file is
     missing, unreadable or malformed, or its horizon is not the scenario's.
  2  usage or configuration error: bad command-line arguments, a missing,
     unreadable or invalid config file, missing ``true_weights`` where the
     command needs them, or a learner override out of range (``--lr`` < 0 or
     not finite).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import Scenario, load_scenario
from .errors import EcegamesError, ConfigError, IngestError, NonConvergenceError
from .ilq import solve_ece
from .irl import run_mairl
from .metrics import (
    HistogramSpec,
    goal_distance_stats,
    kl_divergence_per_feature,
    trajectory_rmse,
)
from .simulate import rollout_batch
from . import trajio

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def _require_true_weights(scenario: Scenario):
    weights = scenario.true_weights()
    if weights is None:
        raise ConfigError("config does not define true_weights for every agent")
    return weights


def _read_demos(path: str, scenario: Scenario):
    """A trajectory file checked against the scenario's dimensions and horizon."""
    batch = trajio.read_trajectories(path, scenario.state_dim, scenario.action_dims)
    if batch.horizon != scenario.horizon:
        raise IngestError(
            f"{path}: horizon {batch.horizon} != scenario horizon {scenario.horizon}"
        )
    return batch


def cmd_gen_demos(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    game = scenario.make_game(_require_true_weights(scenario))
    solution = solve_ece(game, config=scenario.solver_config)
    batch = rollout_batch(game, solution.policies, args.trials, args.seed)
    trajio.write_trajectories(args.out, batch)
    print(f"wrote {args.trials} trajectories to {args.out}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    game = scenario.make_game(_require_true_weights(scenario))
    try:
        solution = solve_ece(game, config=scenario.solver_config)
    except NonConvergenceError as exc:
        if args.trace and exc.trace is not None:
            trajio.write_iteration_trace(args.trace, exc.trace, scenario.num_agents)
        raise
    trajio.write_policy(args.out_policy, solution.policies)
    if args.trace:
        trajio.write_iteration_trace(args.trace, solution.trace, scenario.num_agents)
    print(
        f"converged in {len(solution.trace)} iterations; policy written to {args.out_policy}"
    )
    return 0


def cmd_learn(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    demos = _read_demos(args.demos, scenario)

    given = {"mode": args.mode, "learning_rate": args.lr, "samples_per_expectation": args.samples}
    overrides = {key: value for key, value in given.items() if value is not None}
    try:
        cfg = replace(scenario.learn_config, base_seed=args.seed, **overrides)
    except ValueError as exc:
        raise ConfigError(f"learner: {exc}") from exc

    init = [np.ones(len(feats)) for feats in scenario.basis.agents]
    weights, trace = run_mairl(
        scenario.make_game,
        scenario.basis,
        demos,
        init,
        cfg,
        solver_config=scenario.solver_config,
    )
    names = [scenario.basis.feature_names(i) for i in range(scenario.num_agents)]
    trajio.write_weights(args.out_weights, weights, names)
    if args.trace:
        trajio.write_learn_trace(args.trace, trace)
    last = {rec.agent: rec.residual for rec in trace.records}
    summary = ", ".join(f"agent{i}={last[i]:.4f}" for i in sorted(last))
    status = "converged" if trace.converged else "NOT converged"
    print(f"{status}; final feature-matching residuals: {summary}")
    return 0 if trace.converged else RUNTIME_ERROR


def cmd_eval(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    demos = _read_demos(args.demos, scenario)
    if args.weights is not None:
        weights = trajio.read_weights(args.weights)
    else:
        weights = _require_true_weights(scenario)
    game = scenario.make_game(weights)
    solution = solve_ece(game, config=scenario.solver_config)
    model = rollout_batch(game, solution.policies, args.trials, args.seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    kls = kl_divergence_per_feature(demos, model, scenario.basis, HistogramSpec())
    names = [scenario.basis.feature_names(i) for i in range(scenario.num_agents)]
    trajio.write_kl_table(out_dir / "kl.csv", kls, names)
    stats = goal_distance_stats(model, scenario.goals, scenario.position_indices)
    trajio.write_goal_stats(out_dir / "goal_stats.csv", stats)
    demo_mean_states = np.mean(demos.states, axis=0)
    rmse = trajectory_rmse(demo_mean_states, model, scenario.position_indices)
    trajio.write_rmse(out_dir / "rmse.csv", rmse)

    total = float(np.sum([np.sum(v) for v in kls]))
    print(f"wrote kl.csv, goal_stats.csv, rmse.csv to {out_dir}")
    print(f"total KL(demo||model) over agents and features: {total:.6f}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    batch = _read_demos(args.trajectories, scenario)
    print(f"{args.trajectories}: OK ({len(batch)} trajectories, horizon {batch.horizon})")
    return 0


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return n


def _non_negative_int(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecegames",
        description="Equilibrium solvers and inverse cost learning for dynamic games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-demos", help="sample demonstration rollouts under true weights")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_demos)

    p = sub.add_parser("solve", help="solve equilibrium policies under true weights")
    p.add_argument("--config", required=True)
    p.add_argument("--out-policy", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("learn", help="learn feature weights from demonstrations")
    p.add_argument("--config", required=True)
    p.add_argument("--demos", required=True)
    p.add_argument("--mode", choices=["joint", "independent"], default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--samples", type=_positive_int, default=None)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out-weights", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("eval", help="compare demo and model feature distributions")
    p.add_argument("--config", required=True)
    p.add_argument("--demos", required=True)
    p.add_argument("--weights", default=None, help="weights JSON (default: config true_weights)")
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True, help="output directory for the metric tables")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("validate", help="check a trajectory file against a scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--trajectories", required=True)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; a package error becomes its exit code and one stderr line.

    Warnings are held while the command runs and shown when it ends, unless
    it ends in an error line, which is then all that stderr holds."""
    args = build_parser().parse_args(argv)
    message = None
    try:
        with warnings.catch_warnings(record=True) as caught:
            return args.func(args)
    except ConfigError as exc:
        code, message = USAGE_ERROR, str(exc)
    except NonConvergenceError as exc:
        code, message = RUNTIME_ERROR, f"equilibrium solve did not converge: {exc}"
    except EcegamesError as exc:
        code, message = RUNTIME_ERROR, str(exc)
    finally:
        if message is None:
            for w in caught:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
