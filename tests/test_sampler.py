"""The sampler against the per-step-draw reference in ``oracles.py``.

``simulate_stochastic`` draws a trial's whole noise block with one
``standard_normal`` call and turns it into noise arrays before stepping;
the reference draws each piece with its own call at the step that uses it.
Both, and ``rollout_batch`` that shares the rollout loop, must agree bit for
bit: the random-stream layout is what keeps trajectory files reproducible
across versions.  So must ``simulate_mean`` on nonlinear dynamics; on
``linear`` dynamics it runs the closed loop of the feedback, which agrees
with the reference to a relative 1e-12.
"""

import json
import warnings

import numpy as np
import pytest

from ecegames import (
    AffineGaussianPolicySet,
    GameSpec,
    InitialState,
    NoiseModel,
    SimulationDivergedError,
    dynamics,
    pin_other_agents,
    quadratic_cost,
    rollout_batch,
    simulate_mean,
    simulate_stochastic,
    solve_ece,
)
from ecegames import simulate as simulate_module
from ecegames.config import parse_scenario

from oracles import rollout_batch_per_step, simulate_per_step, unicycle_step_per_agent

SEEDS = (0, 1, 7, 2**31 - 1, 10**12)
TRIALS = 6
BASE_SEED = 40


def scenario_game(config_dir, name, **blocks):
    """A shipped scenario's game under its true weights, with its policies;
    ``<name>_unicycle`` drives the agents as unicycles, and ``blocks``
    replace top-level config blocks."""
    doc = json.loads((config_dir / f"{name.removesuffix('_unicycle')}.json").read_text())
    if name.endswith("_unicycle"):
        doc["dynamics"] = {"kind": "unicycle"}
    doc.update(blocks)
    scenario = parse_scenario(doc)
    game = scenario.make_game(scenario.true_weights())
    return game, solve_ece(game, config=scenario.solver_config).policies


def random_policies(rng, horizon, state_dim, action_dims):
    """Affine-Gaussian policies with random gains, offsets, SPD covariances
    and a random nominal trajectory."""
    covariances = []
    for m in action_dims:
        L = rng.normal(size=(horizon, m, m))
        covariances.append(L @ np.swapaxes(L, 1, 2) + 0.1 * np.eye(m))
    return AffineGaussianPolicySet(
        gains=tuple(0.3 * rng.normal(size=(horizon, m, state_dim)) for m in action_dims),
        offsets=tuple(rng.normal(size=(horizon, m)) for m in action_dims),
        covariances=tuple(covariances),
        nominal_states=rng.normal(size=(horizon, state_dim)),
        nominal_actions=tuple(rng.normal(size=(horizon, m)) for m in action_dims),
    )


def unequal_dims_game(horizon, dims=(1, 2), *, initial=None):
    """Three states and ``linear`` dynamics with agents of unequal action
    dims; process noise of width len(dims) through a dense gain."""
    rng = np.random.default_rng(5)
    A = 0.9 * np.eye(3) + 0.05 * rng.normal(size=(3, 3))
    Bs = [rng.normal(size=(3, m)) for m in dims]
    costs = tuple(
        quadratic_cost(np.eye(3), np.zeros(3), [np.eye(m) for m in dims]) for _ in dims
    )
    n_w = len(dims)
    W = np.eye(n_w) + 0.3 * (np.ones((n_w, n_w)) - np.eye(n_w))
    game = GameSpec(
        dynamics=dynamics.linear(A, Bs),
        costs=costs,
        horizon=horizon,
        noise=NoiseModel(rng.normal(size=(3, n_w)), W),
        initial_state=initial or InitialState(mean=np.array([0.5, -1.0, 2.0])),
    )
    return game, random_policies(rng, horizon, 3, dims)


def assert_close(got, ref, rtol=1e-12):
    """Every entry within ``rtol`` of the reference's largest entry."""
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= rtol * max(np.max(np.abs(ref)), 1.0)


def assert_mean_matches_reference(game, policies):
    """simulate_mean equals the reference bit for bit, or to a relative
    1e-12 on linear dynamics, whose closed loop sums in another order."""
    mean = simulate_mean(game, policies)
    states, actions = simulate_per_step(game, policies)
    assert len(mean.actions) == len(actions)
    for got, ref in zip((mean.states, *mean.actions), (states, *actions)):
        assert got.flags.c_contiguous
        if game.dynamics.linear_maps is None:
            assert np.array_equal(got, ref)
        else:
            assert_close(got, ref)


def assert_matches_reference(game, policies):
    """simulate_stochastic and rollout_batch equal the reference bit for
    bit; simulate_mean as :func:`assert_mean_matches_reference` says."""
    for seed in SEEDS:
        traj = simulate_stochastic(game, policies, seed=seed)
        states, actions = simulate_per_step(game, policies, seed)
        assert np.array_equal(traj.states, states)
        assert all(np.array_equal(a, b) for a, b in zip(traj.actions, actions, strict=True))
    batch = rollout_batch(game, policies, TRIALS, BASE_SEED)
    states, actions = rollout_batch_per_step(game, policies, TRIALS, BASE_SEED)
    assert np.array_equal(batch.states, states)
    assert all(np.array_equal(a, b) for a, b in zip(batch.actions, actions, strict=True))
    assert_mean_matches_reference(game, policies)


@pytest.mark.parametrize(
    "name", ["lq_tracking", "lq_tracking_unicycle", "two_agent_crossing", "three_agent_ring"]
)
def test_shipped_configs(config_dir, name):
    assert_matches_reference(*scenario_game(config_dir, name))


def test_gaussian_initial_state(config_dir):
    n = 8
    cov = 0.01 * (np.eye(n) + 0.5 * np.diag(np.ones(n - 1), 1) + 0.5 * np.diag(np.ones(n - 1), -1))
    initial = {"kind": "gaussian", "mean": [-2.0, 0.5, 0.0, 0.0, 0.5, -2.0, 0.0, 0.0],
               "covariance": cov.tolist()}
    game, policies = scenario_game(config_dir, "lq_tracking", initial_state=initial)
    assert game.initial_state.covariance is not None
    assert_matches_reference(game, policies)


def test_no_process_noise(config_dir):
    game, policies = scenario_game(config_dir, "lq_tracking", noise={"kind": "none"})
    assert game.noise.gain.shape[1] == 0
    assert_matches_reference(game, policies)


@pytest.mark.parametrize("dims", [(1, 2), (3, 1, 2)])
def test_unequal_action_dims(dims):
    game, policies = unequal_dims_game(9, dims)
    assert game.action_dims == dims and game.noise.gain.shape == (3, len(dims))
    assert_matches_reference(game, policies)


def test_one_step_horizon():
    initial = InitialState(mean=np.array([0.5, -1.0, 2.0]), covariance=0.2 * np.eye(3))
    game, policies = unequal_dims_game(1, initial=initial)
    traj = simulate_stochastic(game, policies, seed=3)
    assert traj.states.shape == (1, 3)
    assert_matches_reference(game, policies)


def test_reduced_game_of_pin_other_agents(config_dir):
    game, policies = scenario_game(config_dir, "two_agent_crossing")
    replay = list(simulate_mean(game, policies).actions)
    reduced, _ = pin_other_agents(game, 0, replay)
    own = AffineGaussianPolicySet(
        gains=policies.gains[:1],
        offsets=policies.offsets[:1],
        covariances=policies.covariances[:1],
        nominal_states=policies.nominal_states,
        nominal_actions=policies.nominal_actions[:1],
    )
    assert_matches_reference(reduced, own)


def test_divergence_names_the_reference_step():
    game, policies = unequal_dims_game(12)
    game = GameSpec(
        dynamics=dynamics.linear(1e80 * np.eye(3), [np.zeros((3, m)) for m in game.action_dims]),
        costs=game.costs,
        horizon=game.horizon,
        noise=game.noise,
        initial_state=game.initial_state,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationDivergedError) as expected:
            simulate_per_step(game, policies, 4)
        with pytest.raises(SimulationDivergedError) as err:
            simulate_stochastic(game, policies, seed=4)
    assert err.value.time_step == expected.value.time_step == 5


def diverging_game(kind, horizon=10):
    """Two agents whose rollouts overflow part-way, with action and process
    noise: ``linear`` drift 1e80 s, or ``unicycle`` agents whose speed
    feedback v = 1e9 x scales agent 0's x by about 1e8 per step."""
    if kind == "linear":
        game, policies = unequal_dims_game(horizon, (2, 2))
        drift = dynamics.linear(1e80 * np.eye(3), [np.zeros((3, 2))] * 2)
        return GameSpec(drift, game.costs, horizon, game.noise, game.initial_state), policies
    n = 6
    gains = np.zeros((horizon, 2, n))
    gains[:, 0, 0] = -1e9
    cost = quadratic_cost(np.eye(n), np.zeros(n), [np.eye(2), np.eye(2)])
    game = GameSpec(
        dynamics=dynamics.unicycle(2, 0.1),
        costs=(cost, cost),
        horizon=horizon,
        noise=NoiseModel(np.eye(n), np.eye(n)),
        initial_state=InitialState(mean=np.array([1e270, 0.0, 0.0, 1.0, 2.0, 0.5])),
    )
    policies = AffineGaussianPolicySet.identity_nominal(
        [gains, np.zeros((horizon, 2, n))],
        [np.zeros((horizon, 2))] * 2,
        [np.tile(0.01 * np.eye(2), (horizon, 1, 1))] * 2,
    )
    return game, policies


@pytest.mark.parametrize("kind", ["linear", "unicycle"])
@pytest.mark.parametrize("seed", [None, 4], ids=["mean", "stochastic"])
def test_divergence_raises_at_reference_step_without_warnings(kind, seed):
    game, policies = diverging_game(kind)
    with np.errstate(all="ignore"):
        with pytest.raises(SimulationDivergedError) as expected:
            simulate_per_step(game, policies, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationDivergedError) as err:
            if seed is None:
                simulate_mean(game, policies)
            else:
                simulate_stochastic(game, policies, seed=seed)
    assert err.value.time_step == expected.value.time_step
    assert 2 < err.value.time_step < game.horizon


def test_final_action_overflow_is_a_trajectory_error():
    # The states stay near 1e10; only the last step's gain 1e300 overflows.
    T = 4
    gains = np.zeros((T, 1, 1))
    gains[-1] = 1e300
    game = GameSpec(
        dynamics=dynamics.linear(np.eye(1), [np.eye(1)]),
        costs=(quadratic_cost(np.eye(1), np.zeros(1), [np.eye(1)]),),
        horizon=T,
        noise=NoiseModel.none(1),
        initial_state=InitialState(mean=np.array([1e10])),
    )
    policies = AffineGaussianPolicySet.identity_nominal(
        [gains], [np.zeros((T, 1))], [np.ones((T, 1, 1))]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite actions"):
            simulate_mean(game, policies)
        with pytest.raises(ValueError, match="non-finite actions"):
            simulate_stochastic(game, policies, seed=0)


def test_unicycle_step_matches_per_agent_reference():
    rng = np.random.default_rng(11)
    for num_agents in (1, 2, 3):
        model = dynamics.unicycle(num_agents, 0.1)
        s = rng.normal(size=(4, 3 * num_agents)) * 3.0
        actions = [rng.normal(size=(4, 2)) for _ in range(num_agents)]
        stacked = model.step(1, s, actions)
        for k in range(4):
            row = [a[k] for a in actions]
            assert np.array_equal(model.step(1, s[k], row), unicycle_step_per_agent(0.1, s[k], row))
            assert np.array_equal(stacked[k], unicycle_step_per_agent(0.1, s[k], row))


def test_negative_base_seed_rejected():
    game, policies = unequal_dims_game(3)
    with pytest.raises(ValueError, match="base_seed"):
        rollout_batch(game, policies, 2, -1)


def test_mean_rollout_of_linear_dynamics_runs_the_closed_loop(config_dir, monkeypatch):
    # Random nominal and nonzero offsets: the closed loop must not assume the
    # nominal is a trajectory of the dynamics.
    game, policies = unequal_dims_game(9, (3, 1, 2))
    assert np.count_nonzero(np.concatenate(policies.offsets, axis=1))
    crossing = scenario_game(config_dir, "two_agent_crossing")
    ring = scenario_game(config_dir, "three_agent_ring")
    unicycle = scenario_game(config_dir, "lq_tracking_unicycle")
    reduced, _ = pin_other_agents(crossing[0], 0, list(simulate_mean(*crossing).actions))
    assert unicycle[0].dynamics.linear_maps is None and reduced.dynamics.linear_maps is None

    def per_step_loop(*args, **kwargs):
        raise AssertionError("linear dynamics took the per-step loop")

    monkeypatch.setattr(simulate_module, "_rollout", per_step_loop)
    for linear_game, linear_policies in ((game, policies), crossing, ring):
        assert_mean_matches_reference(linear_game, linear_policies)


def test_non_finite_closed_loop_is_rerun_per_step():
    # A = B = P = 1e200: the closed-loop matrix A - B P overflows, so its
    # product with the zero state is NaN, while the per-step loop applies
    # zero actions to zero states throughout.
    T = 5
    game = GameSpec(
        dynamics=dynamics.linear(1e200 * np.eye(1), [1e200 * np.eye(1)]),
        costs=(quadratic_cost(np.eye(1), np.zeros(1), [np.eye(1)]),),
        horizon=T,
        noise=NoiseModel.none(1),
        initial_state=InitialState(mean=np.zeros(1)),
    )
    policies = AffineGaussianPolicySet.identity_nominal(
        [np.full((T, 1, 1), 1e200)], [np.zeros((T, 1))], [np.ones((T, 1, 1))]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean = simulate_mean(game, policies)
    assert np.array_equal(mean.states, np.zeros((T, 1)))
    assert np.array_equal(mean.actions[0], np.zeros((T, 1)))
