"""Forward simulation of policies: mean rollouts, stochastic sampling, costs.

Sampling is fully seed-driven.  A single trajectory draws, per time step,
first each agent's action noise (in agent order) and then the process noise,
from one `numpy` Generator constructed from the trial seed.  Batches derive
trial seeds as ``base_seed + trial_index``, so any subset of trials can be
reproduced (or computed in parallel) independently of scheduling.
"""

from __future__ import annotations

import numpy as np

from .errors import SimulationDivergedError
from .game import AffineGaussianPolicySet, Array, GameSpec, Trajectory, TrajectoryBatch


def simulate_mean(game: GameSpec, policies: AffineGaussianPolicySet) -> Trajectory:
    """Deterministic rollout from the initial-state mean applying every
    policy's mean action.

    Noise and policy covariances are ignored; the result is bitwise
    reproducible.  Raises :class:`SimulationDivergedError` naming the first
    time step at which the state stops being finite.
    """
    T, n = game.horizon, game.state_dim
    if policies.horizon != T or policies.state_dim != n:
        raise ValueError("policy set dimensions do not match the game")
    s = game.initial_state.mean.copy()
    states = np.empty((T, n))
    actions = [np.empty((T, m)) for m in game.action_dims]
    for k in range(T):
        if not np.all(np.isfinite(s)):
            raise SimulationDivergedError(time_step=k + 1)
        states[k] = s
        acts = policies.mean_actions(k, s)
        for i, a in enumerate(acts):
            actions[i][k] = a
        if k + 1 < T:
            s = game.dynamics.step(k + 1, s, acts)
    return Trajectory(states=states, actions=tuple(actions))


def simulate_stochastic(
    game: GameSpec, policies: AffineGaussianPolicySet, *, seed: int
) -> Trajectory:
    """Sample one trajectory: the initial state from the game's initial-state
    distribution (first draw of the trial generator), actions from each
    agent's Gaussian policy, states through the dynamics plus additive
    process noise.

    Identical seeds produce identical trajectories.
    """
    T, n = game.horizon, game.state_dim
    if policies.horizon != T or policies.state_dim != n:
        raise ValueError("policy set dimensions do not match the game")
    rng = np.random.default_rng(seed)
    s = game.initial_state.sample(rng)
    factors = policies.covariance_factors
    states = np.empty((T, n))
    actions = [np.empty((T, m)) for m in game.action_dims]
    for k in range(T):
        if not np.all(np.isfinite(s)):
            raise SimulationDivergedError(time_step=k + 1)
        states[k] = s
        means = policies.mean_actions(k, s)
        acts = []
        for i, mu in enumerate(means):
            z = rng.standard_normal(mu.shape[0])
            a = mu + factors[i][k] @ z
            actions[i][k] = a
            acts.append(a)
        if k + 1 < T:
            s = game.dynamics.step(k + 1, s, acts) + game.noise.sample(rng)
    return Trajectory(states=states, actions=tuple(actions))


def rollout_batch(
    game: GameSpec,
    policies: AffineGaussianPolicySet,
    trials: int,
    base_seed: int,
) -> TrajectoryBatch:
    """Sample ``trials`` trajectories with trial seeds ``base_seed + k``."""
    if trials < 1:
        raise ValueError("trials must be positive")
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
