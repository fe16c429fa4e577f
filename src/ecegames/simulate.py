"""Forward simulation of policies: mean rollouts, stochastic sampling, costs.

Sampling is fully seed-driven.  Batches derive trial seeds as
``base_seed + trial_index``, so any subset of trials can be reproduced (or
computed in parallel) independently of scheduling.

The random stream of one trial is a compatibility contract: trajectory files
written by earlier versions are reproduced byte for byte.  A trial draws its
whole noise block with one ``standard_normal`` call of the Generator
``numpy.random.default_rng(seed)`` and reads it in this order:

1. the initial state's n standard normals, only when it is Gaussian;
2. at each step t = 1..T, each agent's m_i action-noise normals in agent
   order, then the n_w process-noise normals, except after the last step,
   which has no process noise.

Reading the block in one call gives the same numbers as drawing each piece
in this order with its own call.

A rollout checks its states once, after the last step, with floating-point
warnings off in the loop.  Once a state stops being finite the dynamics'
``step`` keeps running on non-finite states to the end of the horizon;
then :class:`SimulationDivergedError` names the first non-finite step, as a
check at every step would.  A custom ``step`` must accept non-finite states
without raising.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import SimulationDivergedError
from .game import AffineGaussianPolicySet, Array, GameSpec, Trajectory, TrajectoryBatch


def _check_dimensions(game: GameSpec, policies: AffineGaussianPolicySet) -> None:
    if policies.horizon != game.horizon or policies.state_dim != game.state_dim:
        raise ValueError("policy set dimensions do not match the game")


def _rollout(
    game: GameSpec,
    policies: AffineGaussianPolicySet,
    s: Array,
    action_noise: Sequence[Array] | None = None,
    process_noise: Array | None = None,
) -> Trajectory:
    """Roll the feedback law and the drift forward from the initial state
    ``s``, adding ``action_noise[i]`` (T, m_i) to agent i's mean actions and
    ``process_noise`` (T-1, n) to the drift when given.

    The loop runs to the end without checking the states, with floating-point
    warnings off; the first non-finite state row then names the step of
    :class:`SimulationDivergedError`."""
    T, step = game.horizon, game.dynamics.step
    states = np.empty((T, game.state_dim))
    actions = tuple(np.empty((T, m)) for m in game.action_dims)
    laws = tuple(zip(policies.nominal_actions, policies.gains, policies.offsets, actions))
    with np.errstate(all="ignore"):
        for k, sbar in enumerate(policies.nominal_states):
            states[k] = s
            # a = abar - P (s - sbar) - alpha (+ noise), written straight into
            # the action rows in that order.
            ds = s - sbar
            acts = []
            for ab, P, al, a in laws:
                row = a[k]
                np.subtract(ab[k], P[k] @ ds, out=row)
                row -= al[k]
                acts.append(row)
            if action_noise is not None:
                for row, eps in zip(acts, action_noise):
                    row += eps[k]
            if k + 1 < T:
                s = step(k + 1, s, acts)
                if process_noise is not None:
                    s = s + process_noise[k]
    diverged = ~np.isfinite(states).all(axis=1)
    if diverged.any():
        raise SimulationDivergedError(time_step=int(diverged.argmax()) + 1)
    return Trajectory(states=states, actions=actions)


def simulate_mean(game: GameSpec, policies: AffineGaussianPolicySet) -> Trajectory:
    """Deterministic rollout from the initial-state mean applying every
    policy's mean action.

    Noise and policy covariances are ignored; the result is bitwise
    reproducible.  Raises :class:`SimulationDivergedError` naming the first
    time step at which the state stops being finite.
    """
    _check_dimensions(game, policies)
    return _rollout(game, policies, game.initial_state.mean.copy())


def simulate_stochastic(
    game: GameSpec, policies: AffineGaussianPolicySet, *, seed: int
) -> Trajectory:
    """Sample one trajectory: the initial state from the game's initial-state
    distribution, actions from each agent's Gaussian policy, states through
    the dynamics plus additive process noise.

    The noise is read from one draw of ``default_rng(seed)`` in the order the
    module docstring sets down, so identical seeds produce identical
    trajectories.  Raises :class:`SimulationDivergedError` like
    :func:`simulate_mean`.
    """
    _check_dimensions(game, policies)
    T, n = game.horizon, game.state_dim
    rng = np.random.default_rng(seed)
    initial, dims = game.initial_state, game.action_dims
    G = game.noise.factor
    n0 = 0 if initial.factor is None else n
    # One row per step: the agents' action noise, then the process noise.  The
    # last row's process-noise slot lies past every value the trial uses.
    block = rng.standard_normal(n0 + T * (sum(dims) + G.shape[1]))
    s = initial.mean.copy() if n0 == 0 else initial.mean + initial.factor @ block[:n0]
    rows = block[n0:].reshape(T, -1)
    ends = np.cumsum(dims)
    # (M @ x[..., None])[..., 0] applies M row by row and rounds like M @ x.
    action_noise = [
        (L @ rows[:, end - m : end, None])[..., 0]
        for L, m, end in zip(policies.covariance_factors, dims, ends)
    ]
    process_noise = (G @ rows[:-1, ends[-1] :, None])[..., 0]
    return _rollout(game, policies, s, action_noise, process_noise)


def rollout_batch(
    game: GameSpec,
    policies: AffineGaussianPolicySet,
    trials: int,
    base_seed: int,
) -> TrajectoryBatch:
    """Sample ``trials`` trajectories with trial seeds ``base_seed + k``;
    ``base_seed`` must be non-negative, as ``default_rng`` seeds are."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if base_seed < 0:
        raise ValueError("base_seed must be non-negative")
    states = np.empty((trials, game.horizon, game.state_dim))
    actions = tuple(np.empty((trials, game.horizon, m)) for m in game.action_dims)
    for k in range(trials):
        traj = simulate_stochastic(game, policies, seed=base_seed + k)
        states[k] = traj.states
        for stack, a in zip(actions, traj.actions):
            stack[k] = a
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
