"""Cost feature library: reference tracking, control effort, Gaussian proximity.

Each agent's stage cost is a weighted sum of features,
c^i(t, s, a) = w^i . phi^i(t, s, a).  The three feature kinds cover the
synthetic goal-reaching / collision-avoidance experiments:

  * ReferenceTracking: squared distance of the agent's position to a
    per-step reference point (a straight start-to-goal line by default).
  * ControlEffort: squared norm of the agent's own action.
  * GaussianProximity: exp(-||p_i - p_j||^2 / (2 sigma^2)), highest at zero
    separation, in (0, 1].

State features carry analytic gradients and Hessians of their state part so
the induced :class:`~ecegames.game.CostModel` quadratizes exactly.

Every feature method broadcasts over a leading time axis, the contract
:class:`~ecegames.game.CostModel` states: ``t`` is a 1-based step or an int
array of K steps, ``s`` is (n,) or (K, n) and each agent's action is (m,) or
(K, m).  ``value`` returns a scalar or (K,), ``state_gradient`` (n,) or
(K, n) and ``state_hessian`` (n, n) or (K, n, n); row k of a stacked call
equals the one-row call at (t[k], s[k]).

Each feature's ``expectation(t, moments)`` is its exact mean at steps ``t``
under the Gaussian marginals of a :class:`~ecegames.game.TrajectoryMoments`,
and :func:`expected_feature_sums` sums them over time like :func:`feature_sums`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidWeightError
from .game import Array, CostModel, Trajectory, TrajectoryBatch, TrajectoryMoments


def _assemble(pairs, t: int | Array, s: Array, hessian: bool = False) -> Array:
    """sum_k w_k D_s phi_k (or D_ss) over (w_k, phi_k) ``pairs``, added in order to zeros."""
    out = np.zeros(s.shape + s.shape[-1:] * hessian)
    for w, f in pairs:
        (f.add_state_hessian if hessian else f.add_state_gradient)(out, t, s, w)
    return out


class _Feature:
    """``add_state_gradient(out, t, s, w)`` and ``add_state_hessian`` add w times
    the feature's derivatives to ``out``, in place; the public ones are w = 1."""

    def state_gradient(self, t: int | Array, s: Array) -> Array:
        return _assemble(((1.0, self),), t, s)

    def state_hessian(self, t: int | Array, s: Array) -> Array:
        return _assemble(((1.0, self),), t, s, hessian=True)


@dataclass(frozen=True)
class ReferenceTracking(_Feature):
    """||p_t - ref_t||^2 for one agent's position against a sampled reference."""

    position_index: Array
    reference: Array  # (T, d), one reference point per time step

    name = "tracking"

    def __post_init__(self):
        object.__setattr__(self, "position_index", np.asarray(self.position_index, dtype=int))
        object.__setattr__(self, "reference", np.asarray(self.reference, dtype=float))
        if self.reference.ndim != 2 or self.reference.shape[1] != self.position_index.shape[0]:
            raise ValueError("reference must be (T, d) matching the position indices")

    def _offset(self, t: int | Array, s: Array) -> Array:
        return s[..., self.position_index] - self.reference[np.asarray(t) - 1]

    def value(self, t: int | Array, s: Array, actions) -> Array:
        d = self._offset(t, s)
        return np.sum(d * d, axis=-1)

    def expectation(self, t: Array, moments: TrajectoryMoments) -> Array:
        """||mu_p - ref||^2 + tr Sigma_pp."""
        var = np.diagonal(moments.state_covariances, axis1=-2, axis2=-1)[..., self.position_index]
        return self.value(t, moments.states, moments.actions) + np.sum(var, axis=-1)

    def add_state_gradient(self, out: Array, t: int | Array, s: Array, w: float) -> None:
        out[..., self.position_index] += w * (2.0 * self._offset(t, s))

    def add_state_hessian(self, out: Array, t: int | Array, s: Array, w: float) -> None:
        out[..., self.position_index, self.position_index] += w * 2.0


@dataclass(frozen=True)
class ControlEffort(_Feature):
    """||a^i_t||^2 for the owning agent; purely an action feature."""

    agent: int

    name = "control"

    def value(self, t: int | Array, s: Array, actions) -> Array:
        a = actions[self.agent]
        return np.sum(a * a, axis=-1)

    def expectation(self, t: Array, moments: TrajectoryMoments) -> Array:
        """||mu_a||^2 + tr Sigma_a."""
        var = np.diagonal(moments.action_covariances[self.agent], axis1=-2, axis2=-1)
        return self.value(t, moments.states, moments.actions) + np.sum(var, axis=-1)

    def add_state_gradient(self, out: Array, t: int | Array, s: Array, w: float) -> None:
        """No state part: adds nothing."""

    add_state_hessian = add_state_gradient


@dataclass(frozen=True)
class GaussianProximity(_Feature):
    """exp(-||p_i - p_j||^2 / (2 sigma^2)) between two agents' positions."""

    position_index: Array
    target_index: Array
    sigma: float
    target: int

    def __post_init__(self):
        object.__setattr__(self, "position_index", np.asarray(self.position_index, dtype=int))
        object.__setattr__(self, "target_index", np.asarray(self.target_index, dtype=int))
        # sigma**2 divides the exponent and every derivative, so it must be a
        # positive normal float: 1e200 ** 2 raises OverflowError, 1e-200 ** 2 is 0.0.
        if not (self.sigma > 0.0 and np.finfo(float).tiny <= self.sigma * self.sigma < np.inf):
            raise ValueError(
                "proximity length scale sigma must be positive, with a square that is a"
                f" finite normal float (about 1.5e-154 to 1.3e154), got {self.sigma!r}"
            )

    @property
    def name(self) -> str:
        return f"obstacle{self.target}"

    def _separation(self, s: Array) -> tuple[Array, Array]:
        """Separation d = p_i - p_j and phi = exp(-||d||^2 / (2 sigma^2))."""
        d = s[..., self.position_index] - s[..., self.target_index]
        # ||d||^2 as a stacked dot product, which rounds like the one-row d @ d:
        # the PSD projection floors eigenvalues by sign, so ulp changes in the
        # Hessian can change which near-zero ones it floors.
        sq = (d[..., None, :] @ d[..., :, None])[..., 0, 0]
        return d, np.exp(-sq / (2.0 * self.sigma**2))

    def value(self, t: int | Array, s: Array, actions) -> Array:
        return self._separation(s)[1]

    def expectation(self, t: Array, moments: TrajectoryMoments) -> Array:
        """det(I + Sigma_d / sigma^2)^(-1/2) exp(-mu_d' (sigma^2 I + Sigma_d)^(-1) mu_d / 2)
        for the separation d ~ N(mu_d, Sigma_d): the expected squared-exponential
        cost of PILCO (Deisenroth & Rasmussen, ICML 2011)."""
        p, q = self.position_index, self.target_index
        mu = moments.states[..., p] - moments.states[..., q]
        C, sig2 = moments.state_covariances, self.sigma**2
        # S = sigma^2 I + Sigma_d, where Sigma_d = Cov(p_i - p_j).
        S = C[..., p[:, None], p] + C[..., q[:, None], q]
        S -= C[..., p[:, None], q] + C[..., q[:, None], p]
        S += sig2 * np.eye(len(p))
        quad = np.sum(mu * np.linalg.solve(S, mu[..., None])[..., 0], axis=-1)
        logdet = np.linalg.slogdet(S / sig2)[1]
        return np.exp(-0.5 * (logdet + quad))

    def add_state_gradient(self, out: Array, t: int | Array, s: Array, w: float) -> None:
        d, phi = self._separation(s)
        gd = w * (-(phi / self.sigma**2)[..., None] * d)
        out[..., self.position_index] += gd
        out[..., self.target_index] -= gd

    def add_state_hessian(self, out: Array, t: int | Array, s: Array, w: float) -> None:
        d, phi = self._separation(s)
        sig2 = self.sigma**2
        # Hessian of phi wrt the separation vector d.
        dd = d[..., :, None] * d[..., None, :]
        Hd = w * ((phi / sig2)[..., None, None] * (dd / sig2 - np.eye(d.shape[-1])))
        p, q = self.position_index, self.target_index
        out[..., p[:, None], p] += Hd
        out[..., q[:, None], q] += Hd
        out[..., p[:, None], q] -= Hd
        out[..., q[:, None], p] -= Hd


Feature = ReferenceTracking | ControlEffort | GaussianProximity


@dataclass(frozen=True)
class FeatureBasis:
    """Ordered feature lists per agent.  An agent's effort feature reads its
    own action, the only action any feature reads."""

    agents: tuple[tuple[Feature, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(tuple(fs) for fs in self.agents))
        for i, feats in enumerate(self.agents):
            if any(isinstance(f, ControlEffort) and f.agent != i for f in feats):
                raise ValueError(f"agent {i}: a control_effort feature must read its own action")

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    def feature_names(self, agent: int) -> list[str]:
        return [f.name for f in self.agents[agent]]


def straight_line_reference(start: Array, goal: Array, horizon: int) -> Array:
    """Reference path sampled uniformly from start to goal over the horizon."""
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if horizon == 1:
        return goal[None, :].copy()
    alphas = np.linspace(0.0, 1.0, horizon)
    return start[None, :] + alphas[:, None] * (goal - start)[None, :]


def feature_sums(features, rollouts: Trajectory | TrajectoryBatch) -> Array:
    """Sums over time of one agent's ``features``, sum_t phi: an (F,) vector
    for one trajectory, a (K, F) array for a batch of K."""
    steps = np.arange(1, rollouts.horizon + 1)
    sums = np.empty(rollouts.states.shape[:-2] + (len(features),))
    for k, f in enumerate(features):
        sums[..., k] = np.sum(f.value(steps, rollouts.states, rollouts.actions), axis=-1)
    return sums


def eval_features(basis: FeatureBasis, rollouts: Trajectory | TrajectoryBatch) -> list[Array]:
    """Every agent's :func:`feature_sums`."""
    return [feature_sums(feats, rollouts) for feats in basis.agents]


def expected_feature_sums(features, moments: TrajectoryMoments) -> Array:
    """Expected sums over time of one agent's ``features``, E sum_t phi as an
    (F,) vector, under the Gaussian marginals ``moments``: each feature's
    ``expectation`` is its exact mean under them."""
    steps = np.arange(1, moments.horizon + 1)
    return np.array([np.sum(f.expectation(steps, moments)) for f in features])


def control_effort_index(features) -> int:
    """Position of the one :class:`ControlEffort` among an agent's features,
    whose weight is the agent's own action cost R^ii (the learner floors it)."""
    found = [k for k, f in enumerate(features) if isinstance(f, ControlEffort)]
    if len(found) != 1:
        raise InvalidWeightError(
            "features must include a control_effort feature, and only one: its weight"
            f" is the agent's own action cost R^ii (got {len(found)})"
        )
    return found[0]


def validate_weights(basis: FeatureBasis, weights) -> list[Array]:
    weights = [np.asarray(w, dtype=float) for w in weights]
    if len(weights) != basis.num_agents:
        raise InvalidWeightError("one weight vector required per agent")
    for i, w in enumerate(weights):
        if w.shape != (len(basis.agents[i]),):
            raise InvalidWeightError(
                f"agent {i}: {len(basis.agents[i])} features but weights of shape {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise InvalidWeightError(f"agent {i}: weights must be finite")
    return weights


def make_cost_model(
    basis: FeatureBasis, weights, action_dims: tuple[int, ...]
) -> tuple[CostModel, ...]:
    """Cost models c^i = w^i . phi^i with analytic state derivatives, which
    each feature adds w_k times its own to, in place and in order: bit for bit
    the dense sum of weighted arrays, as that sum never holds -0.0.

    The weight of the agent's one effort feature (:func:`control_effort_index`)
    becomes the own action-cost matrix R^{ii} = w_eff I; cross blocks R^{ij}
    are zero (no feature couples one agent's cost to another agent's action).
    A non-positive effort weight is rejected since it would make the own
    action cost singular.
    """
    weights = validate_weights(basis, weights)
    models = []
    for i, feats in enumerate(basis.agents):
        w = weights[i]
        try:
            effort_weight = float(w[control_effort_index(feats)])
        except InvalidWeightError as exc:
            raise InvalidWeightError(f"agent {i}: {exc}") from exc
        if effort_weight <= 0.0:
            raise InvalidWeightError(
                f"agent {i}: control-effort weight must be positive, got {effort_weight}"
            )
        pairs = tuple(zip(w, feats))
        state = tuple((wk, f) for wk, f in pairs if not isinstance(f, ControlEffort))

        def stage_cost(t: int | Array, s: Array, actions, pairs=pairs) -> Array:
            return sum(wk * f.value(t, s, actions) for wk, f in pairs)

        action_cost = tuple(
            effort_weight * np.eye(m) if j == i else np.zeros((m, m))
            for j, m in enumerate(action_dims)
        )
        grad, hess = partial(_assemble, state), partial(_assemble, state, hessian=True)
        models.append(CostModel(stage_cost, grad, hess, action_cost))
    return tuple(models)
