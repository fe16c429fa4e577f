"""Command-line interface: generate demos, solve, learn, evaluate, validate.

Every command is deterministic given its inputs and ``--seed``; re-running
produces byte-identical outputs.  ``learn`` draws nothing, so it ignores its
``--seed``.  Exit codes (:func:`main` maps every package
error to one of them and prints a one-line ``error:`` message to stderr):

  0  success.
  1  runtime failure: the equilibrium solve did not converge ("equilibrium
     solve did not converge: ...") or failed (``solve --trace`` still gets
     the rows made before the failure, and ``learn --trace`` the rows of the
     sweeps finished before it);
     ``learn`` ran out of sweeps before its residuals met the tolerance
     (the trace and the weights of the measured sweep with the smallest
     total residual are still written); a ``--demos``, ``--trajectories``
     or ``--weights`` file is missing, unreadable or malformed, or its
     horizon is not the scenario's; or an output file or directory cannot
     be written ("<path>: cannot write (...)").
  2  usage or configuration error: bad command-line arguments, a missing,
     unreadable or invalid config file (learner settings out of range too),
     or missing ``true_weights`` where the command needs them.

``learn`` models the equilibrium its solver reaches from the demos' mean
actions (:func:`~ecegames.irl.demo_start`, retried cold if that solve
fails); ``eval`` solves from that start and cold and models the solution
nearer the demos (:func:`~ecegames.irl.solve_near_demos`); ``solve`` and
``gen-demos`` have no demos and start cold.

A ``learn`` failure names its phase and sweep: "equilibrium solve failed
in sweep k: ..." or "feature expectation failed in sweep k: ..." in joint
mode, where the one joint game failed, and "... failed in sweep k on agent
i's reduced game: ..." in independent mode.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from .config import Scenario, load_scenario
from .errors import EcegamesError, ConfigError, IngestError, NonConvergenceError
from .ilq import solve_ece
from .irl import MODES, LearnSolveError, run_mairl, solve_near_demos
from .metrics import goal_distance_stats, kl_divergence_per_feature, trajectory_rmse
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
    init = [np.ones(len(feats)) for feats in scenario.basis.agents]
    try:
        weights, trace = run_mairl(
            scenario.make_game, scenario.basis, demos, init, scenario.learn_config,
            mode=args.mode, solver_config=scenario.solver_config,
        )
    except LearnSolveError as exc:
        if args.trace:
            trajio.write_learn_trace(args.trace, exc.trace)
        raise
    names = [scenario.basis.feature_names(i) for i in range(scenario.num_agents)]
    trajio.write_weights(args.out_weights, weights, names)
    if args.trace:
        trajio.write_learn_trace(args.trace, trace)
    written = [rec for rec in trace.records if rec.iteration == trace.returned_sweep]
    summary = ", ".join(f"agent{rec.agent}={rec.residual:.4f}" for rec in written)
    status = "converged" if trace.converged else "NOT converged"
    print(f"{status}; feature-matching residuals of the written weights "
          f"(sweep {trace.returned_sweep}): {summary}")
    return 0 if trace.converged else RUNTIME_ERROR


def cmd_eval(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    demos = _read_demos(args.demos, scenario)
    if args.weights is not None:
        weights = trajio.read_weights(args.weights)
    else:
        weights = _require_true_weights(scenario)
    game = scenario.make_game(weights)
    solution = solve_near_demos(game, demos, scenario.solver_config)
    model = rollout_batch(game, solution.policies, args.trials, args.seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    kls = kl_divergence_per_feature(demos, model, scenario.basis)
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
    p.add_argument("--mode", choices=MODES, default="joint",
                   help="learn in the coupled game (joint, the default) or against the "
                   "other agents replayed from the demos (independent)")
    p.add_argument("--seed", type=_non_negative_int, default=0,
                   help="ignored: the learner draws nothing")
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
    except OSError as exc:
        # Reads raise the package's own errors, so this one comes from an output;
        # a write that fails after the open (a full disk) names no file.
        path = exc.filename or "output"
        code, message = RUNTIME_ERROR, f"{path}: cannot write ({exc.strerror or exc})"
    finally:
        if message is None:
            for w in caught:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
