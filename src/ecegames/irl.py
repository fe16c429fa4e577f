"""Inverse learning of per-agent cost weights by feature-expectation matching.

Weights are adjusted until the expected feature sums under equilibrium play
match the empirical means of the demonstrations.  Each step divides every
feature's gap by the magnitude of its demo mean,

    w^i <- w^i - gamma (E_demo phi^i - E_model phi^i) / (|E_demo phi^i| + 1e-8),

elementwise, so differently scaled features learn at comparable rates.
There is no raw-gap step: on 200 demos of ``lq_tracking`` it had not
converged after 100 sweeps at learning rate 0.1, 0.01 or 0.001, where the
standardized step at 0.1 converges in 71; on ``two_agent_crossing`` its
residuals rose from 0.53/0.37 to 4.67/7.34 in 16 sweeps.

The agents step simultaneously.  Each sweep solves every game it plays
once at the current weights (the joint game, or each agent's reduced game),
measures every agent's residual there, and then steps every agent.  So all
of a sweep's residuals belong to one weight set, and the weights returned
are always a set whose residuals were measured: the converged sweep's, or
the measured set with the smallest total residual.  The paper's inverse
step matches each agent's expectation under the equilibrium of the current
weights; stepping all agents from one equilibrium needs one joint solve
per sweep, where stepping them one at a time (block coordinate descent)
needs a fresh joint solve before each agent's step.

The expectation is drawn from no sample: the equilibrium policies are
Gaussian, so the rollout's Gaussian moments are propagated (exactly on
linear dynamics, linearized at the mean rollout elsewhere) and each
feature's mean under them has a closed form (see
:func:`estimate_feature_expectation`), so a learn is deterministic.  The
step is the feature-matching gradient of maximum-entropy IRL (Ziebart et
al., AAAI 2008).

Two modes, chosen per run (:func:`run_mairl`'s ``mode``, ``learn
--mode``), while the step size, sweep budget and tolerance are the
scenario's (:class:`LearnConfig`):
  * ``joint`` solves the full coupled game at the current weights;
  * ``independent`` learns each agent against the other agents replayed
    open-loop from the demonstrations (their mean action sequences), the
    stand-in for non-interactive baselines.  With a single agent both modes
    coincide exactly.

Either way each agent is measured with its own features on the game it
solves: the full game, or its reduced game of
:func:`~ecegames.game.pin_other_agents` (see :func:`reduced_features`).

A game may have several equilibria (the crossing's agents can swerve to
either side), and an iterative solver returns the one its starting iterate
leads to.  The demos were played in one of them, so the learner models that
one: the first solve of every game it plays starts from the demos' mean
actions (:func:`demo_start`; for a reduced game, its own agent's), and each
later solve from the solution before it.  ``eval`` solves from the same
start, and cold, and keeps the solution nearer the demos
(:func:`solve_near_demos`), so it scores learned weights in the equilibrium
they were learned in; ``solve`` and ``gen-demos`` have no demos and start
cold.

Every step holds each agent's own effort weight at or above
:data:`EFFORT_WEIGHT_FLOOR`, so its action cost stays positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import EcegamesError
from .features import (
    ControlEffort,
    FeatureBasis,
    control_effort_index,
    eval_features,
    expected_feature_sums,
    validate_weights,
)
from .game import (
    AffineGaussianPolicySet,
    Array,
    GameSpec,
    TrajectoryBatch,
    pin_other_agents,
)
from .ilq import EceSolution, SolverConfig, solve_ece
from .simulate import rollout_moments

GameFactory = Callable[[Sequence[Array]], GameSpec]

EFFORT_WEIGHT_FLOOR = 1e-3
"""The least own control-effort weight a learner step leaves an agent."""
MODES = ("joint", "independent")


@dataclass(frozen=True)
class LearnConfig:
    """The learner settings of a scenario, each a key of its learner block.

    ``learning_rate`` is the gradient step gamma; convergence is declared
    when every agent's relative feature-matching residual drops below
    ``residual_tol`` within at most ``max_outer_iterations`` sweeps.
    Each step is gamma times the standardized gap (each feature's gap over
    its demo-mean magnitude), the only step: the raw gap stalled or diverged
    on the shipped scenarios (see the module docstring).
    """

    learning_rate: float = 0.05
    max_outer_iterations: int = 200
    residual_tol: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError("learning rate must be non-negative and finite")
        if self.max_outer_iterations < 1:
            raise ValueError("need at least one outer iteration")
        if not self.residual_tol > 0.0:
            raise ValueError("residual tolerance must be positive")


@dataclass(frozen=True)
class AgentUpdateRecord:
    """One agent's measurement in one sweep.

    ``weights`` are the agent's weights at which ``gap`` (demo mean minus
    model mean) and ``residual`` were measured; ``effort_floored`` says
    whether the step that made them held the own effort weight at
    :data:`EFFORT_WEIGHT_FLOOR` (never on sweep 1, which no step made).
    ``solver_iterations`` and ``cold_fallback`` describe the solve of the
    game the agent was measured on, shared by every agent in joint mode;
    ``cold_fallback`` is set when its start failed and a cold solve
    replaced it.
    """

    iteration: int
    agent: int
    weights: Array
    gap: Array
    residual: float
    solver_iterations: int
    effort_floored: bool
    cold_fallback: bool


@dataclass
class LearnTrace:
    """Every finished sweep's records, in agent order within a sweep;
    whether the learn converged, and the sweep whose weights it returned
    (0 until it returns)."""

    records: list[AgentUpdateRecord] = field(default_factory=list)
    converged: bool = False
    returned_sweep: int = 0


class LearnSolveError(EcegamesError):
    """A sweep failed during learning, in an equilibrium solve or in the
    feature expectation under the solved policies; ``phase`` says which,
    and the message begins with it.  In joint mode the one joint game
    failed (``agent`` is None); in independent mode ``agent``'s reduced
    game did.

    Carries the sweep, its weights and the trace of the sweeps finished
    before the failure.
    """

    def __init__(self, sweep: int, agent: int | None, weights: Sequence[Array],
                 cause: Exception, trace: LearnTrace, phase: str):
        self.sweep = sweep
        self.agent = agent
        self.weights = [np.asarray(w) for w in weights]
        self.trace = trace
        self.phase = phase
        game = "" if agent is None else f" on agent {agent}'s reduced game"
        super().__init__(f"{phase} failed in sweep {sweep}{game}: {cause}")


def _trial_mean(sums: Array) -> Array:
    # cumsum adds the trials one after another; np.sum(axis=0) does so too,
    # except on a single column, which it adds pairwise.
    return np.cumsum(sums, axis=0)[-1] / len(sums)


def empirical_feature_mean(basis: FeatureBasis, demos: TrajectoryBatch) -> list[Array]:
    """Per-agent arithmetic mean of the per-trajectory feature sums."""
    return [_trial_mean(sums) for sums in eval_features(basis, demos)]


def reduced_features(features: Sequence) -> tuple:
    """One agent's ``features`` on its reduced game of
    :func:`~ecegames.game.pin_other_agents`: the effort feature, the one that
    reads an action, reads action 0, the reduced game's only one."""
    return tuple(ControlEffort(0) if isinstance(f, ControlEffort) else f for f in features)


def estimate_feature_expectation(
    game: GameSpec, features: Sequence, policies: AffineGaussianPolicySet
) -> Array:
    """Expected feature sums (F,) of one agent's ``features`` (on a reduced
    game, its :func:`reduced_features`) in ``game`` played with ``policies``.

    Each feature's closed-form mean
    (:func:`~ecegames.features.expected_feature_sums`) under the Gaussian
    marginals of :func:`~ecegames.simulate.rollout_moments`: exact on linear
    dynamics, linearized at the mean rollout elsewhere.  Nothing is sampled.
    """
    return expected_feature_sums(features, rollout_moments(game, policies))


def _solve_with_retry(game, start, solver_config) -> tuple[EceSolution, bool]:
    """The solution of ``game`` and whether a cold solve replaced ``start``'s."""
    # A start (the demo start or a stale warm start) can strand the line
    # search or use up the iteration budget; fall back to a cold start.
    try:
        return solve_ece(game, init=start, config=solver_config), False
    except EcegamesError:
        return solve_ece(game, init=None, config=solver_config), True


def update_weights(
    w: Array,
    gap: Array,
    learning_rate: float,
    *,
    effort_index: int,
) -> tuple[Array, bool]:
    """One gradient step on a feature-matching gap.

    Applies w <- w - gamma * gap, where :func:`run_mairl` passes the
    standardized gap (demo mean - model mean) / (|demo mean| + 1e-8).  The
    own effort weight, at ``effort_index``, is floored at
    :data:`EFFORT_WEIGHT_FLOOR` to keep the induced action cost positive
    definite; the returned flag records whether the floor was active.
    """
    new_w = np.asarray(w, dtype=float) - learning_rate * np.asarray(gap, dtype=float)
    floored = bool(new_w[effort_index] < EFFORT_WEIGHT_FLOOR)
    if floored:
        new_w[effort_index] = EFFORT_WEIGHT_FLOOR
    return new_w, floored


def _standardized(gap: Array, demo_mean: Array) -> Array:
    """The gap of each feature relative to the demo mean's magnitude."""
    return gap / (np.abs(demo_mean) + 1e-8)


def _mean_demo_actions(demos: TrajectoryBatch) -> list[Array]:
    return [np.mean(a, axis=0) for a in demos.actions]


def demo_start(demos: TrajectoryBatch, agent: int | None = None) -> AffineGaussianPolicySet:
    """The demo start: zero gains, zero offsets and unit covariances around
    the demos' mean actions, of every agent, or of ``agent`` alone (the start
    of its reduced game of :func:`~ecegames.game.pin_other_agents`).

    On the crossing a solve from it reaches the demos' side where a cold
    start (zero actions) can reach the mirror swerve; it does not reach a
    stationary point that repels the iteration (see
    :func:`solve_near_demos`)."""
    means = _mean_demo_actions(demos)
    if agent is not None:
        means = means[agent:agent + 1]
    zero = AffineGaussianPolicySet.zero(
        demos.horizon, demos.state_dim, [a.shape[1] for a in means]
    )
    return replace(zero, nominal_actions=tuple(means))


def solve_near_demos(
    game: GameSpec, demos: TrajectoryBatch, solver_config: SolverConfig | None = None
) -> EceSolution:
    """The equilibrium of ``game`` nearest the demos, which ``eval`` models.

    Solves ``game`` from the :func:`demo_start` and cold.  The cold solution
    is returned if its mean states come nearer the demos' mean states (the
    largest distance over the steps) by more than the solver's
    ``convergence_tol``, or if the demo-started solve fails (when both fail,
    the cold solve's error is raised); otherwise the demo-started one is.
    The demo start reaches the demos' side where a cold solve may reach its
    mirror, and a cold solve reaches stationary points that the demos' noise
    moves the demo start away from, such as the near-collision point of a
    short crossing.
    """
    cfg = solver_config or SolverConfig()
    try:
        started = solve_ece(game, init=demo_start(demos), config=cfg)
    except EcegamesError:
        return solve_ece(game, config=cfg)
    try:
        cold = solve_ece(game, config=cfg)
    except EcegamesError:
        return started
    target = np.mean(demos.states, axis=0)

    def distance(solution):
        return np.max(np.linalg.norm(solution.policies.nominal_states - target, axis=1))

    return cold if distance(cold) < distance(started) - cfg.convergence_tol else started


def run_mairl(
    game_factory: GameFactory,
    basis: FeatureBasis,
    demos: TrajectoryBatch,
    init_weights: Sequence[Array],
    cfg: LearnConfig | None = None,
    *,
    mode: str = "joint",
    solver_config: SolverConfig | None = None,
) -> tuple[list[Array], LearnTrace]:
    """Learn all agents' feature weights from interaction demonstrations.

    ``mode`` is ``"joint"`` or ``"independent"`` (see the module docstring).
    Each sweep builds the game at the current weights and solves every game
    it plays once: the joint game, or each agent's reduced game.  The first
    solve of each game starts from its :func:`demo_start`, every later one
    from the previous solution, and a failed start is retried cold.  Every
    agent's feature expectation is taken under its game's solution (in
    joint mode all from one :func:`~ecegames.simulate.rollout_moments`),
    every agent's residual (RMS of its per-feature relative gaps) is
    recorded at these weights, and then every agent takes one gradient
    step.  A failure of either phase raises :class:`LearnSolveError` naming
    it.

    When every residual of a sweep is below tolerance, the learn converges
    and returns exactly that sweep's weights.  When the budget runs out
    (the trace is flagged), it returns the measured weights with the
    smallest total residual.  Either way :attr:`LearnTrace.returned_sweep`
    names the sweep whose records hold the returned weights' residuals.
    """
    cfg = cfg or LearnConfig()
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    weights = [w.copy() for w in validate_weights(basis, init_weights)]
    demo_means = empirical_feature_mean(basis, demos)
    N = basis.num_agents
    effort_indices = [control_effort_index(feats) for feats in basis.agents]
    trace = LearnTrace()

    joint = mode == "joint"
    replay = None if joint else _mean_demo_actions(demos)
    # The games each sweep plays, by warm-start key, and the agents each one
    # measures, each with its own features: the joint game measures every
    # agent; agent i's reduced game measures agent i (reduced_features).
    measured = {None: list(range(N))} if joint else {i: [i] for i in range(N)}
    features = basis.agents if joint else [reduced_features(f) for f in basis.agents]
    # The first solve of each game starts from the demos' mean actions, and
    # every later one from that game's last solution.
    warm = {key: demo_start(demos, key) for key in measured}

    # Sweep 1 measures the initial weights.
    best_total, best_weights, best_sweep = np.inf, weights, 1
    floored = [False] * N

    for sweep in range(1, cfg.max_outer_iterations + 1):
        game = game_factory(weights)
        model_means = [None] * N
        solves = [None] * N
        for key, agents in measured.items():
            played = game if key is None else pin_other_agents(game, key, replay)
            phase = "equilibrium solve"
            try:
                solution, fallback = _solve_with_retry(played, warm[key], solver_config)
                warm[key] = solution.policies
                phase = "feature expectation"
                moments = rollout_moments(played, solution.policies)
                for i in agents:
                    model_means[i] = expected_feature_sums(features[i], moments)
                    solves[i] = (len(solution.trace), fallback)
            except EcegamesError as exc:
                raise LearnSolveError(sweep, key, weights, exc, trace, phase) from exc

        gaps = [demo_means[i] - model_means[i] for i in range(N)]
        # The residual is the RMS of the same per-feature relative gaps the
        # step takes, so a large-magnitude feature (typically control
        # effort) cannot mask mismatch in the others.
        rels = [_standardized(gaps[i], demo_means[i]) for i in range(N)]
        residuals = np.array([np.sqrt(np.mean(rel * rel)) for rel in rels])
        for i in range(N):
            trace.records.append(
                AgentUpdateRecord(
                    iteration=sweep,
                    agent=i,
                    weights=weights[i].copy(),
                    gap=gaps[i],
                    residual=float(residuals[i]),
                    solver_iterations=solves[i][0],
                    effort_floored=floored[i],
                    cold_fallback=solves[i][1],
                )
            )
        if np.all(residuals < cfg.residual_tol):
            trace.converged, trace.returned_sweep = True, sweep
            return weights, trace
        total = float(np.sum(residuals))
        if total < best_total:
            best_total, best_weights, best_sweep = total, weights, sweep
        steps = [
            update_weights(weights[i], rels[i], cfg.learning_rate, effort_index=effort_indices[i])
            for i in range(N)
        ]
        weights = [w for w, _ in steps]
        floored = [f for _, f in steps]

    trace.returned_sweep = best_sweep
    return best_weights, trace
