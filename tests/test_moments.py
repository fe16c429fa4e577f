"""The learner's expectations from Gaussian moments, on every dynamics.

``rollout_moments`` propagates the mean and covariance of a sampled rollout
through the dynamics' Jacobians at the mean rollout, and
``expected_feature_sums`` takes each feature's closed-form mean under them;
``estimate_feature_expectation`` is that and nothing else, so the learner
samples nothing.  On a linear model every state and action of a rollout is
Gaussian and the moments are exact; on unicycles they are a linearization.
The closed forms are held to a 20,000-trial Monte-Carlo estimate on every
shipped config and its unicycle variant, in the joint game and in every
agent's reduced game, with the seed fixed in advance: within ``MC_SE``
standard errors on linear models, within ``LINEARIZED_BIAS`` of each
feature's sampled mean on unicycles.
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
    linearize,
    pin_other_agents,
    quadratic_cost,
    rollout_batch,
    run_mairl,
    simulate,
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
LINEARIZED_BIAS = 0.05  # relative to each feature's sampled mean


@pytest.fixture(scope="module", params=SHIPPED + tuple(f"{s}_unicycle" for s in SHIPPED))
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
    linear = game.dynamics.linear_maps is not None
    for label, played, measured in played_games(scenario.basis, game, policies):
        solved = solve_ece(played, config=scenario.solver_config).policies
        for i, (mean, se) in monte_carlo(measured, played, solved).items():
            closed = estimate_feature_expectation(played, measured[i], solved)
            z, bias = np.abs(closed - mean) / se, np.abs(closed - mean) / np.abs(mean)
            print(f"{label}, features of agent {i}: |z| {np.round(z, 2)}, "
                  f"relative bias {np.round(bias, 4)}")
            if linear:
                assert np.all(z <= MC_SE), (label, i, closed, mean, se)
            else:
                assert np.all(bias <= LINEARIZED_BIAS), (label, i, closed, mean, bias)


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


@pytest.mark.parametrize("name", ["lq_tracking_unicycle", "two_agent_crossing_unicycle"])
def test_unicycle_moments_follow_the_mean_rollout_jacobians(config_dir, name):
    """Off linear models the means are the mean rollout and the covariances
    the recursion through its Jacobians, here stepped one step and one agent
    at a time, with the Jacobians of ``linearize`` (the solver's)."""
    scenario, game = shipped_game(config_dir, name)
    policies = solve_ece(game, config=scenario.solver_config).policies
    mean = simulate_mean(game, policies)
    moments = rollout_moments(game, policies)
    assert np.array_equal(moments.states, mean.states)
    assert all(np.array_equal(a, b) for a, b in zip(moments.actions, mean.actions, strict=True))
    A, Bs = linearize(game, mean)
    G = game.noise.factor
    cov = np.zeros((game.state_dim, game.state_dim))
    for t in range(game.horizon - 1):
        F, added = A[t].copy(), G @ G.T
        for B, P, S in zip(Bs, policies.gains, policies.covariances):
            F -= B[t] @ P[t]
            added = added + B[t] @ S[t] @ B[t].T
        cov = F @ cov @ F.T + added
        assert np.allclose(moments.state_covariances[t + 1], cov, rtol=1e-12, atol=1e-15), t


@pytest.mark.parametrize("name, mode", [
    pytest.param("lq_tracking", "joint", id="joint"),
    pytest.param("lq_tracking", "independent", id="independent"),
    pytest.param("lq_tracking_unicycle", "joint", id="unicycle-joint"),
    pytest.param("lq_tracking_unicycle", "independent", id="unicycle-independent"),
])
def test_linear_learn_samples_nothing(config_dir, monkeypatch, name, mode):
    """``lq_tracking`` and its unicycle variant learn with the sampler broken."""
    scenario, game = shipped_game(config_dir, name)
    policies = solve_ece(game, config=scenario.solver_config).policies
    demos = rollout_batch(game, policies, 10, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("the learner sampled")

    for module in (simulate, irl):
        monkeypatch.setattr(module, "rollout_batch", refuse, raising=False)
    cfg = replace(scenario.learn_config, max_outer_iterations=2)
    init = [np.ones(len(feats)) for feats in scenario.basis.agents]
    _, trace = run_mairl(scenario.make_game, scenario.basis, demos, init, cfg, mode=mode,
                         solver_config=scenario.solver_config)
    assert len(trace.records) == 2 * game.num_agents
