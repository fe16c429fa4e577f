"""Forward simulation of policies: mean rollouts, stochastic sampling, moments, costs.

Sampling is fully seed-driven.  Batches derive trial seeds as
``base_seed + trial_index``, so any subset of trials can be reproduced (or
computed in parallel) independently of scheduling: trial k of
:func:`rollout_batch` is :func:`simulate_stochastic` with seed
``base_seed + k``, bit for bit.

The random stream of one trial is a compatibility contract: trajectory files
written by earlier versions are reproduced byte for byte.  A trial draws its
whole noise block with one ``standard_normal`` call of the Generator
``numpy.random.default_rng(seed)`` and reads it in this order:

1. the initial state's n standard normals, only when it is Gaussian;
2. at each step t = 1..T, each agent's m_i action-noise normals in agent
   order, then the n_w process-noise normals, except after the last step,
   which has no process noise.

Reading the block in one call gives the same numbers as drawing each piece
in this order with its own call.  A batch steps all its trials together, as
one (K, n) stack per step, and each trial still reads its own block in this
order, so stepping trials together changes no bit of any trial.  The
dynamics' ``step`` is therefore called on stacked states; see
:class:`~ecegames.dynamics.DynamicsModel` for the broadcast it must do.

A rollout checks its states once, after the last step, with floating-point
warnings off in the loop.  Once a state stops being finite the dynamics'
``step`` keeps running on non-finite states to the end of the horizon;
then :class:`SimulationDivergedError` names the first non-finite step of
the first diverging trial in trial order, the step a per-trial check at
every step would name.  A custom ``step`` must accept non-finite states
without raising.

:func:`simulate_mean` has two paths, chosen from the dynamics.  For a model
built by :func:`~ecegames.dynamics.linear` (``double_integrator`` too, and
the reduced games that :func:`~ecegames.game.pin_other_agents` makes of
them, whose replayed agents are a per-step drift offset) it stacks every
agent's feedback law on the concatenated actions and runs the closed loop
s_{t+1} = (A - B P_t) s_t + c_t, one product and one sum per step; its
results agree with the per-step loop to rounding, not bit for bit, and a
rollout whose states are not all finite is rerun through the per-step loop,
so the error names the same step.  Every other model (unicycles, custom
models and their reduced games) takes the per-step loop with one trial and
no noise; it is the loop that samples, and its rollouts are bit for bit
those of a per-step reference.

:func:`rollout_moments` gives the Gaussian marginals of the sampled trials
without drawing any, on every dynamics: :func:`simulate_mean`'s rollout and
a covariance recursion through the dynamics' Jacobians along it.  They are
exact on linear models and a linearization on the others.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import SimulationDivergedError
from .game import (
    AffineGaussianPolicySet,
    Array,
    GameSpec,
    Trajectory,
    TrajectoryBatch,
    TrajectoryMoments,
)

CHUNK = 128  # trials per noise draw of a batch


def _check_dimensions(game: GameSpec, policies: AffineGaussianPolicySet) -> None:
    if policies.horizon != game.horizon or policies.state_dim != game.state_dim:
        raise ValueError("policy set dimensions do not match the game")


def _rollout(game: GameSpec, policies: AffineGaussianPolicySet, states: Array,
             actions: Sequence[Array], noisy: bool) -> None:
    """Roll the feedback law and the drift forward in place, for one trial
    (``states`` (T, n), ``actions[i]`` (T, m_i)) or for K trials at once on a
    leading trial axis.  Row 0 of ``states`` holds the initial states.  With
    ``noisy`` the other rows hold the process noise and ``actions`` the
    action noise, and the means are added to them: IEEE addition commutes,
    so noise + mean has the bits of mean + noise.

    The loop runs to the end without checking the states, with floating-point
    warnings off (see :func:`_check_finite`)."""
    T, step = game.horizon, game.dynamics.step
    # Step-major views: S[k] and a[k] are step k's states and actions.
    S, cols = states.swapaxes(0, -2), [a.swapaxes(0, -2) for a in actions]
    laws = tuple(zip(policies.nominal_actions, policies.gains, policies.offsets, cols))
    with np.errstate(all="ignore"):
        for k, sbar in enumerate(policies.nominal_states):
            s = S[k]
            ds = (s - sbar)[..., None]
            for ab, P, al, a in laws:
                # a = abar - P (s - sbar) - alpha (+ noise)
                row = a[k]
                mean = np.subtract(ab[k], (P[k] @ ds)[..., 0], out=None if noisy else row)
                mean -= al[k]
                if noisy:
                    row += mean
            if k + 1 < T:
                drift = step(k + 1, s, [a[k] for a in cols])
                if getattr(drift, "shape", None) != s.shape:
                    raise ValueError(f"dynamics step returned {np.shape(drift)}, not {s.shape}")
                S[k + 1] = S[k + 1] + drift if noisy else drift


def _check_finite(states: Array) -> None:
    """Raise :class:`SimulationDivergedError` naming the first non-finite
    state row of the first trial that has one."""
    finite = np.isfinite(states).all(axis=-1).reshape(-1, states.shape[-2])
    if not finite.all():
        trial = finite.all(axis=1).argmin()
        raise SimulationDivergedError(time_step=int(finite[trial].argmin()) + 1)


def _closed_loop(
    policies: AffineGaussianPolicySet, s: Array, A: Array, B: Array, offset: Array | None
) -> tuple[Array, Array]:
    """Mean states (T, n) and concatenated mean actions (T, K) of the
    feedback law on linear dynamics s' = A s + B a (+ offset_t), from the
    initial state ``s``, without checking them.

    With every agent's law stacked on the concatenated actions,
    a_t = d_t - P_t s_t where d_t = abar_t - alpha_t + P_t sbar_t, so
    s_{t+1} = (A - B P_t) s_t + c_t with c_t = B d_t (+ offset_t): one
    product and one sum per step.
    """
    P = np.concatenate(policies.gains, axis=1)
    d = np.concatenate(policies.nominal_actions, axis=1)
    d -= np.concatenate(policies.offsets, axis=1)
    # (M @ x[..., None])[..., 0] is the stacked P_t x_t.
    d += (P @ policies.nominal_states[:, :, None])[..., 0]
    Phi = A - B @ P[:-1]
    c = d[:-1] @ B.T
    if offset is not None:
        c += offset
    states = np.empty((len(d), len(s)))
    states[0] = s
    for F, c_t, row in zip(Phi, c, states[1:]):
        s = np.matmul(F, s, out=row)
        s += c_t
    return states, d - (P @ states[:, :, None])[..., 0]


def _mean_rollout(
    game: GameSpec, policies: AffineGaussianPolicySet, closed_loop: bool = True
) -> tuple[Array, tuple[Array, ...]]:
    """Mean states (T, n) and per-agent mean actions (T, m_i), unchecked:
    through the closed loop when the dynamics' ``linear_maps`` are set and
    ``closed_loop`` holds, otherwise through the per-step loop."""
    maps = game.dynamics.linear_maps
    if closed_loop and maps is not None:
        with np.errstate(all="ignore"):
            states, actions = _closed_loop(policies, game.initial_state.mean, *maps)
        dims = game.action_dims
        return states, tuple(actions[:, e - m : e].copy() for e, m in zip(np.cumsum(dims), dims))
    states = np.empty((game.horizon, game.state_dim))
    states[0] = game.initial_state.mean
    actions = tuple(np.empty((game.horizon, m)) for m in game.action_dims)
    _rollout(game, policies, states, actions, noisy=False)
    return states, actions


def simulate_mean(game: GameSpec, policies: AffineGaussianPolicySet) -> Trajectory:
    """Deterministic rollout from the initial-state mean applying every
    policy's mean action.

    Noise and policy covariances are ignored; the result is bitwise
    reproducible.  Dynamics whose ``linear_maps`` are set run the closed
    loop of the module docstring, all others the per-step loop.  Raises
    :class:`SimulationDivergedError` naming the first time step at which the
    per-step loop's state stops being finite.
    """
    _check_dimensions(game, policies)
    states, actions = _mean_rollout(game, policies)
    if not np.isfinite(states).all():
        if game.dynamics.linear_maps is not None:
            # The per-step loop names the step at which it diverges.
            states, actions = _mean_rollout(game, policies, closed_loop=False)
        _check_finite(states)
    return Trajectory(states=states, actions=actions)


def rollout_moments(game: GameSpec, policies: AffineGaussianPolicySet) -> TrajectoryMoments:
    """The Gaussian marginals of :func:`rollout_batch`'s trials: exact on
    linear models, and linearized at the mean-action rollout elsewhere.

    The means are :func:`simulate_mean`'s rollout.  The state covariance
    starts from the initial-state covariance (zero for a fixed initial state)
    and follows

        Sigma_{t+1} = Phi_t Sigma_t Phi_t' + B_t Sigma^pol_t B_t' + G W G',

    with Phi_t = A_t - B_t P_t, where A_t and B_t are the dynamics'
    ``jacobians`` at the mean rollout, one stacked call over the steps, and
    Sigma^pol_t the policies' block-diagonal covariance on the concatenated
    actions, as the agents draw independently.  Agent i's action covariance
    is P^i_t Sigma_t P^i_t' + Sigma^i_t.  On linear dynamics every s_t and
    a_t of a trial is Gaussian with these moments; on others (unicycles,
    custom models and their reduced games) they are the first-order
    propagation of the noise around the mean rollout.  Raises
    :class:`SimulationDivergedError` naming the first step whose mean state
    or state covariance is not finite, and the state covariance when the
    mean state there is finite.
    """
    _check_dimensions(game, policies)
    T, G = game.horizon, game.noise.factor
    states, actions = _mean_rollout(game, policies)
    with np.errstate(all="ignore"):
        A, Bs = game.dynamics.jacobians(np.arange(1, T), states[:-1], [a[:-1] for a in actions])
        Phi = A - np.concatenate(Bs, axis=-1) @ np.concatenate(policies.gains, axis=1)[:-1]
        added = np.broadcast_to(G @ G.T, Phi.shape).copy()
        for S, Bi in zip(policies.covariances, Bs):
            added += Bi @ S[:-1] @ Bi.swapaxes(-1, -2)
        cov = np.zeros((T, game.state_dim, game.state_dim))
        if game.initial_state.covariance is not None:
            cov[0] = game.initial_state.covariance
        for F, Q, prev, row in zip(Phi, added, cov, cov[1:]):
            np.matmul(F @ prev, F.T, out=row)
            row += Q
        action_cov = tuple(P @ cov @ P.swapaxes(-1, -2) + S
                           for P, S in zip(policies.gains, policies.covariances))
    finite_mean = np.isfinite(states).all(axis=-1)
    finite = finite_mean & np.isfinite(cov).all(axis=(-2, -1))
    if not finite.all():
        t = int(finite.argmin())
        quantity = "state" if not finite_mean[t] else "state covariance"
        raise SimulationDivergedError(time_step=t + 1, quantity=quantity)
    return TrajectoryMoments(
        states=states, actions=actions, state_covariances=cov, action_covariances=action_cov
    )


def simulate_stochastic(
    game: GameSpec, policies: AffineGaussianPolicySet, *, seed: int
) -> Trajectory:
    """Sample one trajectory: the initial state from the game's initial-state
    distribution, actions from each agent's Gaussian policy, states through
    the dynamics plus additive process noise.

    It is the one-trial :func:`rollout_batch`: the noise is read from one
    draw of ``default_rng(seed)`` in the order the module docstring sets
    down, so identical seeds produce identical trajectories.  Raises
    :class:`SimulationDivergedError` like :func:`simulate_mean`.
    """
    return rollout_batch(game, policies, 1, seed)[0]


def rollout_batch(
    game: GameSpec,
    policies: AffineGaussianPolicySet,
    trials: int,
    base_seed: int,
) -> TrajectoryBatch:
    """Sample ``trials`` trajectories with trial seeds ``base_seed + k``;
    ``base_seed`` must be non-negative, as ``default_rng`` seeds are.

    The noise blocks are drawn ``CHUNK`` trials at a time straight into the
    output arrays, and then all trials are stepped together."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if base_seed < 0:
        raise ValueError("base_seed must be non-negative")
    _check_dimensions(game, policies)
    K, T, n = trials, game.horizon, game.state_dim
    initial, dims, G = game.initial_state, game.action_dims, game.noise.factor
    n0 = 0 if initial.factor is None else n
    ends = np.cumsum(dims)
    states = np.empty((K, T, n))
    actions = tuple(np.empty((K, T, m)) for m in dims)
    # One row per step: the agents' action noise, then the process noise.  The
    # last row's process-noise slot lies past every value a trial uses.
    draws = np.empty((min(K, CHUNK), n0 + T * (ends[-1] + G.shape[1])))
    for c in range(0, K, CHUNK):
        block, chunk = draws[: K - c], slice(c, c + CHUNK)
        for seed, z in enumerate(block, base_seed + c):
            np.random.default_rng(seed).standard_normal(out=z)
        # (M @ x[..., None])[..., 0] applies M row by row and rounds like M @ x.
        states[chunk, 0] = initial.mean
        if n0:
            states[chunk, 0] += (initial.factor @ block[:, :n0, None])[..., 0]
        rows = block[:, n0:].reshape(len(block), T, -1)
        for L, m, end, a in zip(policies.covariance_factors, dims, ends, actions):
            a[chunk] = (L @ rows[..., end - m : end, None])[..., 0]
        states[chunk, 1:] = (G @ rows[:, :-1, ends[-1] :, None])[..., 0]
    _rollout(game, policies, states, actions, noisy=True)
    _check_finite(states)
    return TrajectoryBatch(states=states, actions=actions)


def evaluate_cost(game: GameSpec, trajectory: Trajectory) -> Array:
    """Accumulated raw stage cost per agent, sum_t c^i(t, s_t, a_t)."""
    if trajectory.state_dim != game.state_dim or trajectory.action_dims != game.action_dims:
        raise ValueError("trajectory dimensions do not match the game")
    if trajectory.horizon != game.horizon:
        raise ValueError("trajectory horizon does not match the game")
    steps = np.arange(1, trajectory.horizon + 1)
    states, actions = trajectory.states, trajectory.actions
    return np.array([np.sum(cost.stage_cost(steps, states, actions)) for cost in game.costs])
