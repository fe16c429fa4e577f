"""Inverse learning of per-agent cost weights by feature-expectation matching.

Weights are adjusted until the expected feature sums under equilibrium play
match the empirical means of the demonstrations.  Each step divides every
feature's gap by the magnitude of its demo mean,

    w^i <- w^i - gamma (E_demo phi^i - E_model phi^i) / (|E_demo phi^i| + 1e-8),

elementwise, so differently scaled features learn at comparable rates, and
is swept agent by agent (block coordinate descent).  There is no raw-gap
step: on 200 demos of ``lq_tracking`` it had not converged after 100 sweeps
at learning rate 0.1, 0.01 or 0.001, where the standardized step at 0.1
converges in 71; on ``two_agent_crossing`` its residuals rose from 0.53/0.37
to 4.67/7.34 in 16 sweeps.  The model expectation is a Monte-Carlo average
over sampled equilibrium rollouts and is refreshed after every weight
update, since one agent's cost change moves every agent's equilibrium
behavior.

Two modes:
  * ``joint`` solves the full coupled game at the current weights;
  * ``independent`` learns each agent against the other agents replayed
    open-loop from the demonstrations (their mean action sequences), the
    stand-in for non-interactive baselines.  With a single agent both modes
    coincide exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import EcegamesError
from .features import FeatureBasis, control_effort_index, eval_features, validate_weights
from .game import (
    AffineGaussianPolicySet,
    Array,
    GameSpec,
    TrajectoryBatch,
    pin_other_agents,
)
from .ilq import SolverConfig, solve_ece
from .simulate import rollout_batch

GameFactory = Callable[[Sequence[Array]], GameSpec]


@dataclass(frozen=True)
class LearnConfig:
    """Learning-loop controls.

    ``learning_rate`` is the gradient step gamma; ``samples_per_expectation``
    the Monte-Carlo sample count p; convergence is declared when every
    agent's relative feature-matching residual drops below ``residual_tol``.
    Each step is gamma times the standardized gap (each feature's gap over
    its demo-mean magnitude), the only step: the raw gap stalled or diverged
    on the shipped scenarios (see the module docstring).  The own effort
    weight is held at ``effort_weight_floor`` or above.  Every field but
    ``base_seed``, which the CLI's ``--seed`` sets, is a key of a scenario's
    learner block.
    """

    learning_rate: float = 0.05
    samples_per_expectation: int = 50
    max_outer_iterations: int = 200
    residual_tol: float = 0.05
    mode: str = "joint"
    base_seed: int = field(default=0, metadata={"config": False})
    effort_weight_floor: float = 1e-3

    def __post_init__(self):
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError("learning rate must be non-negative and finite")
        if self.samples_per_expectation < 1:
            raise ValueError("need at least one sample per expectation")
        if self.max_outer_iterations < 1:
            raise ValueError("need at least one outer iteration")
        if not self.residual_tol > 0.0:
            raise ValueError("residual tolerance must be positive")
        if not self.effort_weight_floor > 0.0:
            raise ValueError("effort weight floor must be positive")
        if self.mode not in ("joint", "independent"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")


@dataclass(frozen=True)
class AgentUpdateRecord:
    iteration: int
    agent: int
    weights: Array
    gap: Array
    residual: float
    solver_iterations: int
    effort_floored: bool


@dataclass
class LearnTrace:
    records: list[AgentUpdateRecord] = field(default_factory=list)
    converged: bool = False


class LearnSolveError(EcegamesError):
    """Equilibrium solve failed during learning; carries the offending weights."""

    def __init__(self, agent: int, weights: Sequence[Array], cause: Exception):
        self.agent = agent
        self.weights = [np.asarray(w) for w in weights]
        super().__init__(f"equilibrium solve failed while updating agent {agent}: {cause}")


def empirical_feature_mean(basis: FeatureBasis, demos: TrajectoryBatch) -> list[Array]:
    """Per-agent arithmetic mean of the per-trajectory feature sums."""
    # cumsum adds the trials one after another; np.sum(axis=0) does so too,
    # except on a single column, which it adds pairwise.
    return [np.cumsum(sums, axis=0)[-1] / len(demos) for sums in eval_features(basis, demos)]


def _identity(batch: TrajectoryBatch) -> TrajectoryBatch:
    return batch


def estimate_feature_expectation(
    game: GameSpec,
    basis: FeatureBasis,
    samples: int,
    base_seed: int,
    *,
    solver_config: SolverConfig | None = None,
    warm_start: AffineGaussianPolicySet | None = None,
    embed: Callable[[TrajectoryBatch], TrajectoryBatch] = _identity,
) -> tuple[list[Array], AffineGaussianPolicySet, int]:
    """Monte-Carlo feature expectations under the game's equilibrium policies.

    Solves the equilibrium once, then averages feature sums over ``samples``
    stochastic rollouts with trial seeds ``base_seed + j`` (initial states
    drawn from the game's initial-state distribution), the batch mapped
    through ``embed`` to rollouts of ``basis``'s game (the identity, or the
    embedding :func:`~ecegames.game.pin_other_agents` returns with a reduced
    game).  Returns the per-agent expectation vectors, the solved policies
    (for warm starts) and the solver iteration count.
    """
    solution = _solve_with_retry(game, warm_start, solver_config)
    rollouts = embed(rollout_batch(game, solution.policies, samples, base_seed))
    return empirical_feature_mean(basis, rollouts), solution.policies, len(solution.trace)


def _solve_with_retry(game, warm_start, solver_config):
    # A stale warm start can strand the line search; fall back to cold start.
    try:
        return solve_ece(game, init=warm_start, config=solver_config)
    except EcegamesError:
        if warm_start is None:
            raise
        return solve_ece(game, init=None, config=solver_config)


def update_weights(
    w: Array,
    gap: Array,
    learning_rate: float,
    *,
    effort_index: int,
    effort_floor: float,
) -> tuple[Array, bool]:
    """One gradient step on a feature-matching gap.

    Applies w <- w - gamma * gap, where :func:`run_mairl` passes the
    standardized gap (demo mean - model mean) / (|demo mean| + 1e-8).  The
    own effort weight, at ``effort_index``, is floored at ``effort_floor`` to
    keep the induced action cost positive definite; the returned flag
    records whether the floor was active.
    """
    new_w = np.asarray(w, dtype=float) - learning_rate * np.asarray(gap, dtype=float)
    floored = bool(new_w[effort_index] < effort_floor)
    if floored:
        new_w[effort_index] = effort_floor
    return new_w, floored


def _standardized(gap: Array, demo_mean: Array) -> Array:
    """The gap of each feature relative to the demo mean's magnitude."""
    return gap / (np.abs(demo_mean) + 1e-8)


def _mean_demo_actions(demos: TrajectoryBatch) -> list[Array]:
    return [np.mean(a, axis=0) for a in demos.actions]


def run_mairl(
    game_factory: GameFactory,
    basis: FeatureBasis,
    demos: TrajectoryBatch,
    init_weights: Sequence[Array],
    cfg: LearnConfig | None = None,
    *,
    solver_config: SolverConfig | None = None,
) -> tuple[list[Array], LearnTrace]:
    """Learn all agents' feature weights from interaction demonstrations.

    Outer loop over block-coordinate sweeps: for each agent in turn, estimate
    its feature expectation under the current full weight set, take one
    gradient step on that agent's weights, and continue with the refreshed
    set.  Equilibrium solves are warm-started from the previous iteration.
    Convergence requires every agent's relative feature-matching residual
    (RMS of per-feature relative gaps) below tolerance within one sweep.
    Each residual is measured at the weights its agent had before its step,
    but the weights returned are those after a whole sweep's steps: the
    converging sweep's, or, when the budget runs out (the trace is flagged),
    those after the sweep with the smallest total residual, at which no
    residual was measured.
    """
    cfg = cfg or LearnConfig()
    weights = [w.copy() for w in validate_weights(basis, init_weights)]
    demo_means = empirical_feature_mean(basis, demos)
    N = basis.num_agents
    effort_indices = [control_effort_index(feats) for feats in basis.agents]
    p = cfg.samples_per_expectation
    trace = LearnTrace()

    joint = cfg.mode == "joint"
    replay = None if joint else _mean_demo_actions(demos)
    # Joint mode warm-starts every solve from the last joint solution, and
    # independent mode each agent's reduced game from its own last solution.
    warm: dict[int | None, AffineGaussianPolicySet] = {}

    best_total = np.inf
    best_weights = [w.copy() for w in weights]

    for sweep in range(cfg.max_outer_iterations):
        residuals = np.empty(N)
        for i in range(N):
            seed = cfg.base_seed + (sweep * N + i) * p
            game = game_factory(weights)
            key = None if joint else i
            played, embed = (game, _identity) if joint else pin_other_agents(game, i, replay)
            try:
                means, warm[key], iters = estimate_feature_expectation(
                    played,
                    basis,
                    p,
                    seed,
                    solver_config=solver_config,
                    warm_start=warm.get(key),
                    embed=embed,
                )
            except EcegamesError as exc:
                raise LearnSolveError(agent=i, weights=weights, cause=exc) from exc
            model_mean = means[i]

            gap = demo_means[i] - model_mean
            # The residual is the RMS of the same per-feature relative gaps
            # the step takes, so a large-magnitude feature (typically control
            # effort) cannot mask mismatch in the others.
            rel = _standardized(gap, demo_means[i])
            residuals[i] = float(np.sqrt(np.mean(rel * rel)))
            weights[i], floored = update_weights(
                weights[i],
                rel,
                cfg.learning_rate,
                effort_index=effort_indices[i],
                effort_floor=cfg.effort_weight_floor,
            )
            trace.records.append(
                AgentUpdateRecord(
                    iteration=sweep + 1,
                    agent=i,
                    weights=weights[i].copy(),
                    gap=gap,
                    residual=residuals[i],
                    solver_iterations=iters,
                    effort_floored=floored,
                )
            )
        total = float(np.sum(residuals))
        if total < best_total:
            best_total = total
            best_weights = [w.copy() for w in weights]
        if np.all(residuals < cfg.residual_tol):
            trace.converged = True
            return weights, trace

    trace.converged = False
    return best_weights, trace
