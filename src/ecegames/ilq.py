"""Iterative linear-quadratic approximation for general nonlinear games.

The solver alternates four steps around a nominal trajectory until
successive mean trajectories agree:

  1. forward-simulate the current policies' means to refresh the nominal;
  2. linearize the dynamics at the nominal (delta-state / delta-action form);
  3. quadratize every agent's cost at the nominal;
  4. solve the resulting LQ-Gaussian game exactly and step toward its means,
     damping only the feedforward offsets by a halving line search that keeps
     the new trajectory within a deviation threshold of the nominal.

The converged policies are returned re-anchored on the converged nominal
with zero offsets (the feedforward is absorbed into the nominal actions), so
a mean rollout of the returned policy set reproduces the converged
trajectory: exactly for nonlinear dynamics, and to rounding for linear
ones, whose mean rollouts run the closed loop of the feedback
(:func:`~ecegames.simulate.simulate_mean`).  Covariances come from the final
stage solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    LinearizationError,
    LineSearchError,
    NonConvergenceError,
    QuadratizationError,
    SimulationDivergedError,
)
from .game import AffineGaussianPolicySet, Array, GameSpec, Trajectory, policy_with_nominal
from .lq import LqStageGame, solve_lq_ece
from .simulate import evaluate_cost, simulate_mean

# Replaces the negative eigenvalues of each quadratized state-cost Hessian.
HESSIAN_FLOOR = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls for the nonlinear equilibrium solver.

    ``convergence_tol`` bounds the max-over-time Euclidean state deviation
    between successive mean trajectories.  ``max_step_deviation`` is the
    line-search acceptance threshold on the same metric (state units; large
    enough by default that well-scaled problems take full steps).
    ``min_step`` ends the halving sequence 1, 1/2, 1/4, ...
    """

    max_iterations: int = 100
    convergence_tol: float = 1e-4
    max_step_deviation: float = 10.0
    min_step: float = 1.0 / 64.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if min(self.convergence_tol, self.max_step_deviation, self.min_step) <= 0.0:
            raise ValueError("tolerances and step bounds must be positive")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    max_deviation: float
    step_size: float
    agent_costs: Array


@dataclass
class IterationTrace:
    records: list[IterationRecord] = field(default_factory=list)
    converged: bool = False

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class EceSolution:
    policies: AffineGaussianPolicySet
    trace: IterationTrace


def linearize(game: GameSpec, nominal: Trajectory) -> tuple[Array, list[Array]]:
    """Dynamics Jacobians (A_t, B_t^j) along the nominal for t = 1..T-1, from
    one stacked ``jacobians`` call."""
    acts = [a[:-1] for a in nominal.actions]
    A, B = game.dynamics.jacobians(np.arange(1, game.horizon), nominal.states[:-1], acts)
    bad = ~np.isfinite(A).all(axis=(1, 2))
    for b in B:
        bad |= ~np.isfinite(b).all(axis=(1, 2))
    if bad.any():
        raise LinearizationError(time_step=int(np.argmax(bad)) + 1)
    return A, list(B)


def _project_psd(H: Array) -> Array:
    """Clamp negative eigenvalues of a (T, n, n) stack to ``HESSIAN_FLOOR`` so
    every quadratized state cost is PSD; stages without one keep the
    symmetrised H.

    One path for every stage: each is reconstructed from its ``eigh`` as
    V diag(w') V' (w' is w with its negative entries floored), and the mask
    of stages with a negative eigenvalue picks that reconstruction or the
    symmetrised H.  Each stage's reconstruction is the same product as on
    its own, so which stages are projected does not change any bit.
    """
    Q = (H + np.swapaxes(H, 1, 2)) / 2.0
    w, V = np.linalg.eigh(Q)
    projected = (V * np.where(w < 0.0, HESSIAN_FLOOR, w)[:, None, :]) @ np.swapaxes(V, 1, 2)
    return np.where(w[:, :1, None] < 0.0, projected, Q)


def quadratize(game: GameSpec, nominal: Trajectory) -> tuple[list[Array], list[Array], list[Array]]:
    """Second-order cost data (Q_t^i, l_t^i, r_t^i) along the nominal.

    Q is the state-cost Hessian (PSD-projected), l the state-cost gradient,
    and r the linear own-action term 2 R^{ii} abar from recentering the
    action quadratic on the nominal actions.  Each agent's cost is expanded
    at all T nominal states in one stacked call.
    """
    steps = np.arange(1, game.horizon + 1)
    Q, l, r = [], [], []
    for i, cost in enumerate(game.costs):
        H = cost.state_hessian(steps, nominal.states)
        g = cost.state_gradient(steps, nominal.states)
        bad = ~(np.isfinite(H).all(axis=(1, 2)) & np.isfinite(g).all(axis=1))
        if bad.any():
            raise QuadratizationError(time_step=int(np.argmax(bad)) + 1, agent=i)
        Q.append(_project_psd(H))
        l.append(g)
        r.append(2.0 * nominal.actions[i] @ cost.action_cost[i].T)
    return Q, l, r


def stage_game_around(game: GameSpec, nominal: Trajectory) -> LqStageGame:
    """The delta-variable LQ-Gaussian game obtained by expanding at the nominal.

    The exact Taylor expansion of the action cost sum_j a_j'R_j a_j about
    abar is dabar'(R)da + 2 abar'R da, which in the stage game's
    half-quadratic convention appears as action matrices 2 R^{ij} plus the
    linear terms from :func:`quadratize`.
    """
    A, B = linearize(game, nominal)
    Q, l, r = quadratize(game, nominal)
    R = tuple(
        tuple(2.0 * Rij for Rij in cost.action_cost) for cost in game.costs
    )
    return LqStageGame(A=A, B=tuple(B), Q=tuple(Q), l=tuple(l), R=R, r=tuple(r))


def _max_state_deviation(a: Trajectory, b: Trajectory) -> float:
    return float(np.max(np.linalg.norm(a.states - b.states, axis=1)))


def solve_ece(
    game: GameSpec,
    init: AffineGaussianPolicySet | None = None,
    config: SolverConfig | None = None,
) -> EceSolution:
    """Approximate equilibrium policies of a nonlinear game.

    Starts from ``init`` (or all-zero feedback) and iterates
    linearize / quadratize / LQ solve / damped rollout until the mean
    trajectory moves less than ``convergence_tol``.  Raises
    :class:`NonConvergenceError` (carrying the trace and last iterate) if the
    iteration budget runs out, :class:`LineSearchError` if no admissible step
    exists.
    """
    cfg = config or SolverConfig()
    if init is None:
        init = AffineGaussianPolicySet.zero(game.horizon, game.state_dim, game.action_dims)
    nominal = simulate_mean(game, init)
    trace = IterationTrace()
    policies = init
    for it in range(1, cfg.max_iterations + 1):
        lq = solve_lq_ece(stage_game_around(game, nominal), game.temperatures)

        eps = 1.0
        candidate = None
        while True:
            trial_policy = AffineGaussianPolicySet(
                gains=lq.policies.gains,
                offsets=tuple(eps * a for a in lq.policies.offsets),
                covariances=lq.policies.covariances,
                nominal_states=nominal.states,
                nominal_actions=nominal.actions,
            )
            try:
                rolled = simulate_mean(game, trial_policy)
                dev = _max_state_deviation(rolled, nominal)
            except SimulationDivergedError:
                dev = np.inf
            if dev <= cfg.max_step_deviation:
                candidate = rolled
                break
            if eps <= cfg.min_step:
                raise LineSearchError(iteration=it, min_step=cfg.min_step)
            eps *= 0.5

        trace.records.append(
            IterationRecord(
                iteration=it,
                max_deviation=dev,
                step_size=eps,
                agent_costs=evaluate_cost(game, candidate),
            )
        )
        policies = policy_with_nominal(trial_policy, candidate)
        nominal = candidate
        if dev < cfg.convergence_tol:
            trace.converged = True
            return EceSolution(policies=policies, trace=trace)

    raise NonConvergenceError(
        f"no convergence within {cfg.max_iterations} iterations "
        f"(last deviation {trace.records[-1].max_deviation:.3e})",
        trace=trace,
        policies=policies,
    )
