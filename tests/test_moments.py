"""Exact learner expectations on linear dynamics.

On a model with ``linear_maps`` every state and action of a sampled rollout
is Gaussian, so ``rollout_moments`` propagates its mean and covariance and
``expected_feature_sums`` takes each feature's closed-form mean under them.
``estimate_feature_expectation`` uses that path wherever the dynamics are
linear and samples only on other dynamics.  The closed forms are held to a
20,000-trial Monte-Carlo estimate on every shipped config, in the joint game
and in every agent's reduced game, with the seed fixed in advance.
"""

from dataclasses import replace

import numpy as np
import pytest

from ecegames import (
    AffineGaussianPolicySet,
    GameSpec,
    InitialState,
    NoiseModel,
    SimulationDivergedError,
    dynamics,
    eval_features,
    irl,
    pin_other_agents,
    quadratic_cost,
    rollout_batch,
    run_mairl,
    simulate_mean,
    solve_ece,
)
from ecegames.features import expected_feature_sums, feature_sums
from ecegames.irl import estimate_feature_expectation, reduced_features
from ecegames.simulate import rollout_moments

from conftest import shipped_game

SHIPPED = ("lq_tracking", "two_agent_crossing", "three_agent_ring")
MC_TRIALS = 20_000
MC_CHUNK = 2_000  # trials per rollout_batch call, to keep memory small
MC_SEED = 0
MC_SE = 3.0


@pytest.fixture(scope="module", params=SHIPPED)
def shipped(request, config_dir):
    """(scenario, game, equilibrium policies) of a shipped config."""
    scenario, game = shipped_game(config_dir, request.param)
    return scenario, game, solve_ece(game, config=scenario.solver_config).policies


def played_games(basis, game, policies):
    """(label, played game, {agent: features}): the joint game with every
    agent's features, and every agent's reduced game, its other agents
    replaying their equilibrium mean actions, with its reduced features."""
    replay = simulate_mean(game, policies).actions
    yield "joint", game, dict(enumerate(basis.agents))
    for i, feats in enumerate(basis.agents):
        yield f"agent {i}", pin_other_agents(game, i, replay), {i: reduced_features(feats)}


def monte_carlo(measured, game, policies):
    """For each agent of ``measured``, the mean sums of its features over
    ``MC_TRIALS`` sampled rollouts from trial seed ``MC_SEED`` and their
    standard errors."""
    chunks = {i: [] for i in measured}
    for lo in range(0, MC_TRIALS, MC_CHUNK):
        batch = rollout_batch(game, policies, MC_CHUNK, MC_SEED + lo)
        for i, feats in measured.items():
            chunks[i].append(feature_sums(feats, batch))
    sums = {i: np.concatenate(c) for i, c in chunks.items()}
    return {i: (f.mean(axis=0), f.std(axis=0, ddof=1) / np.sqrt(MC_TRIALS))
            for i, f in sums.items()}


@pytest.mark.slow
def test_exact_expectation_matches_monte_carlo(shipped):
    scenario, game, policies = shipped
    for label, played, measured in played_games(scenario.basis, game, policies):
        solved = solve_ece(played, config=scenario.solver_config).policies
        for i, (mean, se) in monte_carlo(measured, played, solved).items():
            exact = estimate_feature_expectation(played, measured[i], solved, 1, 0)
            assert np.all(np.abs(exact - mean) <= MC_SE * se), (label, i, exact, mean, se)


def test_mean_trajectory_at_zero_covariance(shipped):
    """With every covariance zero each feature's expectation is its value on
    the mean rollout."""
    scenario, game, policies = shipped
    mean = simulate_mean(game, policies)
    moments = rollout_moments(game, policies)
    assert np.array_equal(moments.states, mean.states)
    zero = replace(
        moments,
        state_covariances=np.zeros_like(moments.state_covariances),
        action_covariances=tuple(np.zeros_like(c) for c in moments.action_covariances),
    )
    for feats, ref in zip(scenario.basis.agents, eval_features(scenario.basis, mean)):
        assert np.allclose(expected_feature_sums(feats, zero), ref, rtol=1e-12, atol=0.0)


def scalar_game(a=1.0, noise=0.3, initial_variance=0.5, horizon=5):
    """One agent on the line, s' = a s + u, with process noise and a Gaussian start."""
    return GameSpec(
        dynamics=dynamics.linear(np.array([[a]]), [np.eye(1)]),
        costs=(quadratic_cost(np.eye(1), np.zeros(1), [np.eye(1)]),),
        horizon=horizon,
        noise=NoiseModel.scaled_identity(1, noise),
        initial_state=InitialState(mean=np.ones(1), covariance=initial_variance * np.eye(1)),
    )


def scalar_policy(gains, variances):
    T = len(gains)
    return AffineGaussianPolicySet.identity_nominal(
        gains=[np.reshape(gains, (T, 1, 1))],
        offsets=[np.full((T, 1), 0.1)],
        covariances=[np.reshape(variances, (T, 1, 1))],
    )


def test_scalar_recursion():
    game = scalar_game()
    gains, variances = [0.5, 0.2, 0.8, 0.1, 0.0], [0.4, 0.3, 0.2, 0.1, 0.05]
    moments = rollout_moments(game, scalar_policy(gains, variances))
    mean, var = 1.0, 0.5
    for t, (p, v) in enumerate(zip(gains, variances)):
        assert moments.states[t, 0] == pytest.approx(mean, rel=1e-14)
        assert moments.state_covariances[t, 0, 0] == pytest.approx(var, rel=1e-14)
        assert moments.actions[0][t, 0] == pytest.approx(-p * mean - 0.1, rel=1e-14)
        assert moments.action_covariances[0][t, 0, 0] == pytest.approx(p * p * var + v, rel=1e-14)
        mean, var = (1 - p) * mean - 0.1, (1 - p) ** 2 * var + v + 0.3**2


def test_non_finite_moments_name_their_step():
    game = scalar_game(a=1e200)
    policy = scalar_policy(np.zeros(5), np.ones(5))
    # Sigma_2 = 1e400 * 0.5 overflows first; the mean only at step 3.
    with pytest.raises(SimulationDivergedError) as err:
        rollout_moments(game, policy)
    assert err.value.time_step == 2
    assert str(err.value) == "non-finite state covariance encountered at time step t=2"
    # Without any covariance only the mean can overflow.
    quiet = scalar_game(a=1e200, noise=0.0, initial_variance=0.0)
    with pytest.raises(SimulationDivergedError) as err:
        rollout_moments(quiet, scalar_policy(np.zeros(5), np.zeros(5)))
    assert str(err.value) == "non-finite state encountered at time step t=3"


def test_nonlinear_dynamics_are_refused(config_dir):
    scenario, game = shipped_game(config_dir, "lq_tracking_unicycle")
    policies = AffineGaussianPolicySet.zero(game.horizon, game.state_dim, game.action_dims)
    with pytest.raises(ValueError, match="linear_maps"):
        rollout_moments(game, policies)


def counted_rollouts(monkeypatch):
    """Replace the learner's ``rollout_batch`` with one that records its trial counts."""
    calls = []

    def counted(game, policies, trials, base_seed):
        calls.append(trials)
        return rollout_batch(game, policies, trials, base_seed)

    monkeypatch.setattr(irl, "rollout_batch", counted)
    return calls


def learn(scenario, game, mode, seed=0):
    policies = solve_ece(game, config=scenario.solver_config).policies
    demos = rollout_batch(game, policies, 10, 3)
    cfg = replace(scenario.learn_config, max_outer_iterations=2, samples_per_expectation=7)
    init = [np.ones(len(feats)) for feats in scenario.basis.agents]
    return run_mairl(scenario.make_game, scenario.basis, demos, init, cfg, mode=mode, seed=seed,
                     solver_config=scenario.solver_config)


@pytest.mark.parametrize("mode", ["joint", "independent"])
def test_linear_learn_samples_nothing(config_dir, monkeypatch, mode):
    scenario, game = shipped_game(config_dir, "lq_tracking")
    calls = counted_rollouts(monkeypatch)
    weights, trace = learn(scenario, game, mode)
    assert calls == []
    assert len(trace.records) == 2 * game.num_agents
    # Nothing is drawn, so the learner's seed changes nothing.
    again, _ = learn(scenario, game, mode, seed=12345)
    for a, b in zip(weights, again):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("mode", ["joint", "independent"])
def test_unicycle_learn_samples_once_per_update(config_dir, monkeypatch, mode):
    scenario, game = shipped_game(config_dir, "lq_tracking_unicycle")
    calls = counted_rollouts(monkeypatch)
    _, trace = learn(scenario, game, mode)
    assert len(trace.records) == 2 * game.num_agents
    assert calls == [7] * len(trace.records)
