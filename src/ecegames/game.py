"""Domain types for finite-horizon stochastic dynamic games.

All agents observe the joint state s_t in R^n; agent i applies action
a^i_t in R^{m_i}.  The state advances through a shared drift with additive
Gaussian noise,

    s_{t+1} = f(t, s_t, a^1_t, ..., a^N_t) + G w_t,    w_t ~ N(0, W),

for 1-based time steps t = 1..T (the drift acts for t < T).  Each agent
accumulates a separable per-stage cost

    c^i(t, s_t, a_t) = v^i(t, s_t) + sum_j a^j_t' R^{ij} a^j_t,

encoded by :class:`CostModel` as a black-box stage evaluator together with
analytic derivatives of the state part v^i and the exact action matrices
R^{ij}.  Policies are per-agent, per-step affine-Gaussian feedback laws
expressed around a nominal trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import numpy.typing as npt

from .dynamics import DynamicsModel, linear
from .errors import CovarianceError

Array = npt.NDArray[np.float64]

StageCostFn = Callable[[int | Array, Array, Sequence[Array]], float | Array]
StateDerivFn = Callable[[int | Array, Array], Array]

_SYM_TOL = 1e-9


def _check_symmetric(M: Array, name: str) -> None:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.allclose(M, M.T, atol=_SYM_TOL, rtol=0.0):
        raise ValueError(f"{name} is not symmetric")


def temperatures_valid(temperatures: Iterable[float]) -> bool:
    """Whether every entropy temperature is positive and finite."""
    return all(0.0 < g < np.inf for g in temperatures)


def cholesky_checked(S: Array, agent: int) -> tuple[Array, Array]:
    """Symmetrise agent ``agent``'s (T, m, m) covariance stack and
    Cholesky-factorise it.

    Returns the symmetrised stack and its lower factors.  Raises
    :class:`CovarianceError` naming the agent and its first 1-based time
    step whose matrix is not positive definite or whose factor is not finite
    (``np.linalg.cholesky`` returns NaN factors for NaN input without raising).
    """
    sym = (S + np.swapaxes(S, -1, -2)) / 2.0
    try:
        L = np.linalg.cholesky(sym)
        if np.isfinite(L).all():
            return sym, L
    except np.linalg.LinAlgError:
        pass
    for k, M in enumerate(sym):
        try:
            ok = np.isfinite(np.linalg.cholesky(M)).all()
        except np.linalg.LinAlgError:
            ok = False
        if not ok:
            raise CovarianceError(
                f"policy covariance not positive definite for agent {agent} at t={k + 1}",
                agent=agent,
                time_step=k + 1,
            )
    raise np.linalg.LinAlgError("stacked Cholesky factorisation failed on no single step")


def psd_factor(M: Array) -> Array:
    """Square root L with L L' = M for a symmetric PSD matrix (eigh-based).

    Tolerates exact zeros and tiny negative eigenvalues from rounding, which a
    Cholesky factorization would reject.
    """
    w, V = np.linalg.eigh((M + M.T) / 2.0)
    if np.min(w, initial=0.0) < -1e-10 * max(1.0, float(np.max(np.abs(w), initial=0.0))):
        raise ValueError("matrix is not positive semi-definite")
    return V * np.sqrt(np.clip(w, 0.0, None))


@dataclass(frozen=True)
class NoiseModel:
    """Additive Gaussian process noise G w_t with w_t ~ N(0, W).

    The gain is a constant (n, n_w) matrix; W must be symmetric PSD
    (identity by default, and W = 0 or n_w = 0 disable the noise).  The model
    holds no random state: :func:`~ecegames.simulate.rollout_batch` maps
    each trial's standard normals through the field ``factor``, the
    (n, n_w) matrix G W^(1/2) set at construction, where factoring W also
    checks that it is PSD.
    """

    gain: Array
    covariance: Array
    factor: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gain", np.asarray(self.gain, dtype=float))
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=float))
        if self.gain.ndim != 2:
            raise ValueError("noise gain must be a matrix")
        n_w = self.gain.shape[1]
        if self.covariance.shape != (n_w, n_w):
            raise ValueError(
                f"noise covariance shape {self.covariance.shape} does not match gain width {n_w}"
            )
        if n_w:
            _check_symmetric(self.covariance, "noise covariance")
        object.__setattr__(self, "factor", self.gain @ psd_factor(self.covariance))

    @classmethod
    def scaled_identity(cls, state_dim: int, scale: float) -> "NoiseModel":
        return cls(scale * np.eye(state_dim), np.eye(state_dim))

    @classmethod
    def none(cls, state_dim: int) -> "NoiseModel":
        return cls(np.zeros((state_dim, 0)), np.zeros((0, 0)))


@dataclass(frozen=True)
class InitialState:
    """Fixed or Gaussian distribution of the initial joint state.

    A Gaussian initial state is sampled by
    :func:`~ecegames.simulate.rollout_batch` as ``mean + factor @ z``
    from the first n standard normals of a trial; a fixed one is ``mean``.
    The field ``factor``, set at construction, is the (n, n) square root of
    the covariance (factoring it also checks that it is PSD), or None when
    the state is fixed.
    """

    mean: Array
    covariance: Array | None = None
    factor: Array | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        if self.covariance is not None:
            cov = np.asarray(self.covariance, dtype=float)
            object.__setattr__(self, "covariance", cov)
            n = self.mean.shape[0]
            if cov.shape != (n, n):
                raise ValueError("initial-state covariance shape mismatch")
            _check_symmetric(cov, "initial-state covariance")
            object.__setattr__(self, "factor", psd_factor(cov))


@dataclass(frozen=True)
class CostModel:
    """Separable per-stage cost of one agent.

    ``stage_cost(t, s, actions)`` evaluates c(t, s, a) = v(t, s) +
    sum_j a_j' R_j a_j.  ``state_gradient`` / ``state_hessian`` evaluate
    D_s v and D_ss v; ``action_cost`` holds the R_j matrices (own block
    positive definite, cross blocks PSD, enforced at game construction).

    All three callables broadcast over a leading time axis, and custom cost
    models must too: ``t`` is a 1-based step or an int array of K steps,
    ``s`` is (n,) or (K, n) and each ``actions[j]`` is (m_j,) or (K, m_j).
    A stacked call returns stage costs (K,), gradients (K, n) and Hessians
    (K, n, n) whose row k equals the one-row call at (t[k], s[k]); the solver
    evaluates each agent's cost once per trajectory this way.
    """

    stage_cost: StageCostFn
    state_gradient: StateDerivFn
    state_hessian: StateDerivFn
    action_cost: tuple[Array, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "action_cost", tuple(np.asarray(R, dtype=float) for R in self.action_cost)
        )
        for j, R in enumerate(self.action_cost):
            _check_symmetric(R, f"action cost block R[{j}]")


def quadratic_cost(Q: Array, l: Array, Rs: Sequence[Array]) -> CostModel:
    """Cost model for the quadratic stage cost 1/2 s'Qs + l's + 1/2 sum_j a_j'R_j a_j.

    ``Rs`` follows the half-quadratic convention of the LQ stage-game solver;
    the stored action matrices are Rs/2 so that the :class:`CostModel`
    decomposition (which carries no 1/2 on the action term) evaluates the
    same function.
    """
    Q = np.asarray(Q, dtype=float)
    l = np.asarray(l, dtype=float)
    Rs = [np.asarray(R, dtype=float) for R in Rs]
    _check_symmetric(Q, "Q")

    def stage_cost(t: int | Array, s: Array, actions: Sequence[Array]) -> float | Array:
        c = 0.5 * np.sum((s @ Q) * s, axis=-1) + s @ l
        for R, a in zip(Rs, actions):
            c = c + 0.5 * np.sum((a @ R) * a, axis=-1)
        return c

    def state_gradient(t: int | Array, s: Array) -> Array:
        return s @ Q.T + l

    def state_hessian(t: int | Array, s: Array) -> Array:
        return np.broadcast_to(Q, s.shape + s.shape[-1:]).copy()

    return CostModel(stage_cost, state_gradient, state_hessian, tuple(0.5 * R for R in Rs))


@dataclass(frozen=True)
class GameSpec:
    """A finite-horizon game: shared dynamics, per-agent costs, noise, horizon."""

    dynamics: DynamicsModel
    costs: tuple[CostModel, ...]
    horizon: int
    noise: NoiseModel
    initial_state: InitialState
    temperatures: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "costs", tuple(self.costs))
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        n_agents = self.dynamics.num_agents
        if len(self.costs) != n_agents:
            raise ValueError("one cost model required per agent")
        if not self.temperatures:
            object.__setattr__(self, "temperatures", tuple(1.0 for _ in range(n_agents)))
        else:
            object.__setattr__(self, "temperatures", tuple(float(g) for g in self.temperatures))
        if len(self.temperatures) != n_agents:
            raise ValueError("one temperature required per agent")
        if not temperatures_valid(self.temperatures):
            raise ValueError("temperatures must be positive and finite")
        if self.noise.gain.shape[0] != self.dynamics.state_dim:
            raise ValueError("noise gain row count must equal the state dimension")
        if self.initial_state.mean.shape != (self.dynamics.state_dim,):
            raise ValueError("initial state dimension mismatch")
        maps = self.dynamics.linear_maps
        if maps is not None and maps[2] is not None and len(maps[2]) != self.horizon - 1:
            raise ValueError(
                f"dynamics offset has {len(maps[2])} steps, horizon {self.horizon} needs "
                f"{self.horizon - 1}"
            )
        for i, cost in enumerate(self.costs):
            if len(cost.action_cost) != n_agents:
                raise ValueError(f"cost model {i} must carry one action block per agent")
            for j, R in enumerate(cost.action_cost):
                m = self.dynamics.action_dims[j]
                if R.shape != (m, m):
                    raise ValueError(f"R[{i}][{j}] shape {R.shape} != ({m}, {m})")
            own = cost.action_cost[i]
            if np.min(np.linalg.eigvalsh(own)) <= 0.0:
                raise ValueError(f"own action cost R[{i}][{i}] must be positive definite")

    @property
    def num_agents(self) -> int:
        return self.dynamics.num_agents

    @property
    def state_dim(self) -> int:
        return self.dynamics.state_dim

    @property
    def action_dims(self) -> tuple[int, ...]:
        return self.dynamics.action_dims


class _RolloutLayout:
    """Dimensions read off the last two axes, (T, n) and (T, m_i), of the
    ``states`` and ``actions`` arrays."""

    def _store(self, lead: tuple[str, ...]) -> None:
        """Store the fields as float arrays; check their leading axes ``lead``
        and that every value is finite."""
        object.__setattr__(self, "states", np.asarray(self.states, dtype=float))
        object.__setattr__(
            self, "actions", tuple(np.asarray(a, dtype=float) for a in self.actions)
        )
        axes = ", ".join(lead)
        if self.states.ndim != len(lead) + 1:
            raise ValueError(f"states must be ({axes}, n)")
        for a in self.actions:
            if a.shape[:-1] != self.states.shape[:-1]:
                raise ValueError(f"every action array must be ({axes}, m_i)")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory contains non-finite states")
        if any(not np.all(np.isfinite(a)) for a in self.actions):
            raise ValueError("trajectory contains non-finite actions")

    @property
    def horizon(self) -> int:
        return self.states.shape[-2]

    @property
    def state_dim(self) -> int:
        return self.states.shape[-1]

    @property
    def action_dims(self) -> tuple[int, ...]:
        return tuple(a.shape[-1] for a in self.actions)

    @property
    def num_agents(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class Trajectory(_RolloutLayout):
    """One joint rollout: states (T, n) and per-agent actions (T, m_i)."""

    states: Array
    actions: tuple[Array, ...]

    def __post_init__(self):
        self._store(("T",))


@dataclass(frozen=True)
class TrajectoryBatch(_RolloutLayout):
    """K rollouts stacked on a leading trial axis: states (K, T, n) and
    per-agent actions (K, T, m_i); the unit of demos and samples.

    The field names are those of :class:`Trajectory`, so code written for one
    trajectory serves a batch wherever the trial axis broadcasts.  ``len``,
    indexing and iteration give the trials as :class:`Trajectory` objects.
    """

    states: Array
    actions: tuple[Array, ...]

    def __post_init__(self):
        self._store(("K", "T"))
        if self.states.shape[0] == 0:
            raise ValueError("trajectory batch may not be empty")

    def __len__(self) -> int:
        return self.states.shape[0]

    def __getitem__(self, k: int) -> Trajectory:
        return Trajectory(states=self.states[k], actions=tuple(a[k] for a in self.actions))

    def __iter__(self) -> Iterator[Trajectory]:
        return (self[k] for k in range(len(self)))


@dataclass(frozen=True)
class TrajectoryMoments:
    """The Gaussian marginals of a stochastic rollout at every step: mean
    states (T, n) and per-agent mean actions (T, m_i), with state covariances
    (T, n, n) and per-agent action covariances (T, m_i, m_i).

    The mean fields are named as in :class:`Trajectory`, so code that reads
    ``states`` and ``actions`` of one trajectory reads the means here."""

    states: Array
    actions: tuple[Array, ...]
    state_covariances: Array
    action_covariances: tuple[Array, ...]

    @property
    def horizon(self) -> int:
        return self.states.shape[-2]


@dataclass(frozen=True)
class AffineGaussianPolicySet:
    """Per-agent, per-step policies a ~ N(abar_t - P_t (s - sbar_t) - alpha_t, Sigma_t).

    Gains are (T, m_i, n), offsets (T, m_i) and covariances (T, m_i, m_i) per
    agent.  The nominal trajectory (sbar, abar) anchors the feedback; direct
    solutions of linear-quadratic games use an all-zero nominal so the law
    reduces to a = -P s - alpha.
    """

    gains: tuple[Array, ...]
    offsets: tuple[Array, ...]
    covariances: tuple[Array, ...]
    nominal_states: Array
    nominal_actions: tuple[Array, ...]

    def __post_init__(self):
        object.__setattr__(self, "gains", tuple(np.asarray(g, dtype=float) for g in self.gains))
        object.__setattr__(self, "offsets", tuple(np.asarray(a, dtype=float) for a in self.offsets))
        object.__setattr__(
            self, "covariances", tuple(np.asarray(S, dtype=float) for S in self.covariances)
        )
        object.__setattr__(self, "nominal_states", np.asarray(self.nominal_states, dtype=float))
        object.__setattr__(
            self, "nominal_actions", tuple(np.asarray(a, dtype=float) for a in self.nominal_actions)
        )
        T, n = self.nominal_states.shape
        if not len(self.gains) == len(self.offsets) == len(self.covariances) == len(
            self.nominal_actions
        ):
            raise ValueError("per-agent field lengths disagree")
        for i, (P, al, S, ab) in enumerate(
            zip(self.gains, self.offsets, self.covariances, self.nominal_actions)
        ):
            m = P.shape[1]
            if P.shape != (T, m, n) or al.shape != (T, m) or S.shape != (T, m, m) or ab.shape != (
                T,
                m,
            ):
                raise ValueError(f"inconsistent shapes for agent {i}")

    @property
    def horizon(self) -> int:
        return self.nominal_states.shape[0]

    @property
    def state_dim(self) -> int:
        return self.nominal_states.shape[1]

    @property
    def num_agents(self) -> int:
        return len(self.gains)

    @property
    def action_dims(self) -> tuple[int, ...]:
        return tuple(P.shape[1] for P in self.gains)

    @classmethod
    def identity_nominal(cls, gains, offsets, covariances) -> "AffineGaussianPolicySet":
        """Policies around the all-zero nominal, i.e. a = -P s - alpha."""
        T = np.asarray(gains[0]).shape[0]
        n = np.asarray(gains[0]).shape[2]
        return cls(
            gains=tuple(gains),
            offsets=tuple(offsets),
            covariances=tuple(covariances),
            nominal_states=np.zeros((T, n)),
            nominal_actions=tuple(np.zeros((T, np.asarray(P).shape[1])) for P in gains),
        )

    @classmethod
    def zero(cls, horizon: int, state_dim: int, action_dims: Sequence[int]):
        """All-zero feedback (unit covariances); the cold-start iterate."""
        return cls.identity_nominal(
            gains=[np.zeros((horizon, m, state_dim)) for m in action_dims],
            offsets=[np.zeros((horizon, m)) for m in action_dims],
            covariances=[np.tile(np.eye(m), (horizon, 1, 1)) for m in action_dims],
        )

    @cached_property
    def covariance_factors(self) -> tuple[Array, ...]:
        """Cholesky factors of every Sigma_t^i, computed once per policy set."""
        return tuple(cholesky_checked(S, i)[1] for i, S in enumerate(self.covariances))


def pin_other_agents(game: GameSpec, agent: int, replay_actions: Sequence[Array]) -> GameSpec:
    """Reduce a game to a single decision maker with the rest on open-loop replay.

    Agent ``agent`` keeps its cost and action channel; every other agent's
    action at step t is pinned to ``replay_actions[j][t-1]``.  The own entry
    of ``replay_actions`` is never read (any placeholder will do).  Returns
    the reduced single-agent game: the full joint state, and agent
    ``agent``'s action as its only one, action 0.

    On dynamics with ``linear_maps`` the replay is a per-step drift: the
    reduced dynamics are ``linear(A, [B_i], c)`` with
    c_t = sum_{j != i} B_j abar_j(t) (plus the model's own offset), so
    reduced games get the closed-loop mean rollout and the once-per-solve
    linearization of linear games.  Other dynamics are wrapped in a ``step``
    and ``jacobians`` that re-insert the replayed actions at every call,
    broadcast to the leading shape of the agent's actions when ``step`` gets
    stacked trials.  The reduced cost does the same in either case.
    """
    N = game.num_agents
    if not 0 <= agent < N:
        raise ValueError(f"agent index {agent} out of range")
    if len(replay_actions) != N:
        raise ValueError("one replay action array required per agent (own entry ignored)")
    replay = {
        j: np.asarray(a, dtype=float) for j, a in enumerate(replay_actions) if j != agent
    }
    for j, a in replay.items():
        if a.shape != (game.horizon, game.action_dims[j]):
            raise ValueError(f"replay action shape mismatch for agent {j}")

    if N == 1:
        return game

    dyn = game.dynamics

    def expand(t: int | Array, a: Array) -> list[Array]:
        acts = {j: r[t - 1] for j, r in replay.items()}
        if getattr(t, "ndim", 0) < a.ndim - 1:  # one step of stacked trials
            acts = {j: np.broadcast_to(x, a.shape[:-1] + x.shape) for j, x in acts.items()}
        return [a if j == agent else acts[j] for j in range(N)]

    if dyn.linear_maps is not None:
        A, B, offset = dyn.linear_maps
        blocks = np.split(B, np.cumsum(dyn.action_dims)[:-1], axis=1)
        # (M @ x[..., None])[..., 0] is M @ x_t at every step, rounded like it.
        pinned = [(blocks[j] @ a[:-1, :, None])[..., 0] for j, a in replay.items()]
        drift = sum(pinned[1:], pinned[0])
        if offset is not None:
            drift += offset
        reduced_dynamics = linear(A, [np.ascontiguousarray(blocks[agent])], drift)
    else:

        def step(t: int, s: Array, actions: Sequence[Array]) -> Array:
            return dyn.step(t, s, expand(t, actions[0]))

        def jacobians(t: int | Array, s: Array, actions: Sequence[Array]):
            A, Bs = dyn.jacobians(t, s, expand(t, actions[0]))
            return A, [Bs[agent]]

        reduced_dynamics = DynamicsModel(dyn.state_dim, (dyn.action_dims[agent],), step, jacobians)

    cost = game.costs[agent]

    def stage_cost(t: int | Array, s: Array, actions: Sequence[Array]) -> float | Array:
        return cost.stage_cost(t, s, expand(t, actions[0]))

    reduced_cost = CostModel(
        stage_cost=stage_cost,
        state_gradient=cost.state_gradient,
        state_hessian=cost.state_hessian,
        action_cost=(cost.action_cost[agent],),
    )
    return GameSpec(
        dynamics=reduced_dynamics,
        costs=(reduced_cost,),
        horizon=game.horizon,
        noise=game.noise,
        initial_state=game.initial_state,
        temperatures=(game.temperatures[agent],),
    )


def policy_with_nominal(
    policies: AffineGaussianPolicySet, nominal: Trajectory
) -> AffineGaussianPolicySet:
    """Re-anchor a policy set on a new nominal trajectory with zero offsets, so
    that its mean action on each nominal state is the nominal action."""
    return replace(
        policies,
        offsets=tuple(np.zeros_like(a) for a in policies.offsets),
        nominal_states=nominal.states,
        nominal_actions=nominal.actions,
    )
