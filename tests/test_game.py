"""Core types and forward simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecegames import (
    AffineGaussianPolicySet,
    GameSpec,
    InitialState,
    NoiseModel,
    SimulationDivergedError,
    Trajectory,
    dynamics,
    evaluate_cost,
    quadratic_cost,
    rollout_batch,
    simulate_mean,
    simulate_stochastic,
)
from ecegames.features import eval_features
from ecegames.game import CostModel, pin_other_agents

from oracles import central_difference_jacobian, finite_difference_jacobians, simulate_per_step


def scalar_game(horizon=3, a=1.0, b=1.0, q=1.0, l=0.0, r=1.0, s1=1.0, noise=None):
    return GameSpec(
        dynamics=dynamics.linear(np.array([[a]]), [np.array([[b]])]),
        costs=(quadratic_cost(np.array([[q]]), np.array([l]), [np.array([[r]])]),),
        horizon=horizon,
        noise=noise or NoiseModel.none(1),
        initial_state=InitialState(mean=np.array([s1])),
    )


def scalar_policy(horizon, gain=0.0, offset=0.0, cov=1.0):
    return AffineGaussianPolicySet.identity_nominal(
        gains=[np.full((horizon, 1, 1), gain)],
        offsets=[np.full((horizon, 1), offset)],
        covariances=[np.full((horizon, 1, 1), cov)],
    )


class TestSimulateMean:
    def test_zero_dynamics_maps_everything_to_zero(self):
        def step(t, s, actions):
            return np.zeros(2)

        dyn = dynamics.DynamicsModel(
            2, (1,), step, finite_difference_jacobians(step, 2, (1,))
        )
        game = GameSpec(
            dynamics=dyn,
            costs=(quadratic_cost(np.eye(2), np.zeros(2), [np.eye(1)]),),
            horizon=4,
            noise=NoiseModel.none(2),
            initial_state=InitialState(mean=np.array([3.0, -1.0])),
        )
        policy = AffineGaussianPolicySet.zero(4, 2, (1,))
        traj = simulate_mean(game, policy)
        assert np.array_equal(traj.states[0], [3.0, -1.0])
        assert np.all(traj.states[1:] == 0.0)

    def test_zero_action_identity_dynamics_holds_state(self):
        game = scalar_game(horizon=3)
        traj = simulate_mean(game, scalar_policy(3))
        assert np.allclose(traj.states[:, 0], [1.0, 1.0, 1.0])

    def test_half_gain_rollout(self):
        game = scalar_game(horizon=2)
        traj = simulate_mean(game, scalar_policy(2, gain=0.5))
        assert traj.states[1, 0] == pytest.approx(0.5)
        assert traj.actions[0][0, 0] == pytest.approx(-0.5)

    def test_divergence_names_time_step(self):
        # s_t = 10^(t-1) 1e305 is finite up to t = 4 and overflows at t = 5.
        game = scalar_game(horizon=5, a=10.0, s1=1e305)
        with np.errstate(over="ignore"):
            with pytest.raises(SimulationDivergedError) as expected:
                simulate_per_step(game, scalar_policy(5))
            with pytest.raises(SimulationDivergedError) as err:
                simulate_mean(game, scalar_policy(5))
        assert err.value.time_step == expected.value.time_step == 5


class TestSimulateStochastic:
    def test_degenerate_covariance_matches_mean(self):
        game = scalar_game(horizon=6, a=0.9, b=0.7)
        mean_policy = scalar_policy(6, gain=0.3)
        tiny = scalar_policy(6, gain=0.3, cov=1e-12)
        ref = simulate_mean(game, mean_policy)
        sampled = simulate_stochastic(game, tiny, seed=5)
        assert np.max(np.abs(sampled.states - ref.states)) < 1e-5

    def test_divergence_names_time_step(self):
        game = scalar_game(horizon=5, a=10.0, s1=1e305, noise=NoiseModel(np.eye(1), np.eye(1)))
        with np.errstate(over="ignore"):
            with pytest.raises(SimulationDivergedError) as expected:
                simulate_per_step(game, scalar_policy(5), 9)
            with pytest.raises(SimulationDivergedError) as err:
                simulate_stochastic(game, scalar_policy(5), seed=9)
        assert err.value.time_step == expected.value.time_step == 5

    def test_seed_determinism(self):
        game = scalar_game(horizon=5, noise=NoiseModel(np.eye(1), np.eye(1)))
        policy = scalar_policy(5, gain=0.2)
        a = simulate_stochastic(game, policy, seed=123)
        b = simulate_stochastic(game, policy, seed=123)
        assert np.array_equal(a.states, b.states)
        assert all(np.array_equal(x, y) for x, y in zip(a.actions, b.actions))

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_seed_determinism_property(self, seed):
        game = scalar_game(horizon=3, noise=NoiseModel(np.eye(1), np.eye(1)))
        policy = scalar_policy(3, gain=0.1)
        a = simulate_stochastic(game, policy, seed=seed)
        b = simulate_stochastic(game, policy, seed=seed)
        assert np.array_equal(a.states, b.states)

    def test_standard_normal_moments(self):
        # P = alpha = 0, Sigma = 1, W = 0: first actions are iid N(0, 1).  Trial k
        # of the batch is simulate_stochastic(seed=k) bit for bit.
        game = scalar_game(horizon=1)
        policy = scalar_policy(1)
        draws = rollout_batch(game, policy, 100_000, 0).actions[0][:, 0, 0]
        assert abs(draws.mean()) < 0.02
        assert 0.97 < draws.var() < 1.03


class TestEvaluateCost:
    def test_zero_trajectory_quadratic_cost_is_zero(self):
        game = scalar_game(horizon=4)
        traj = Trajectory(states=np.zeros((4, 1)), actions=(np.zeros((4, 1)),))
        assert np.array_equal(evaluate_cost(game, traj), [0.0])

    def test_hand_summed_cost(self):
        # c = s^2 + a^2 realized as quadratic_cost with Q = 2, R = 2.
        game = GameSpec(
            dynamics=dynamics.linear(np.array([[1.0]]), [np.array([[1.0]])]),
            costs=(
                quadratic_cost(np.array([[2.0]]), np.zeros(1), [np.array([[2.0]])]),
            ),
            horizon=2,
            noise=NoiseModel.none(1),
            initial_state=InitialState(mean=np.array([1.0])),
        )
        traj = Trajectory(
            states=np.array([[1.0], [1.0]]), actions=(np.array([[1.0], [0.0]]),)
        )
        assert evaluate_cost(game, traj)[0] == pytest.approx(3.0)

    def test_feature_cost_equals_weighted_feature_sums(self, small_scenario):
        weights = small_scenario.true_weights()
        game = small_scenario.make_game(weights)
        policy = AffineGaussianPolicySet.zero(game.horizon, game.state_dim, game.action_dims)
        traj = simulate_stochastic(game, policy, seed=3)
        sums = eval_features(small_scenario.basis, traj)
        expected = np.array([w @ s for w, s in zip(weights, sums)])
        assert np.allclose(evaluate_cost(game, traj), expected, rtol=1e-12)


class TestJacobianContracts:
    @pytest.mark.parametrize("kind", ["double_integrator", "unicycle"])
    def test_dynamics_jacobians_match_finite_differences(self, kind):
        rng = np.random.default_rng(7)
        model = getattr(dynamics, kind)(2, 0.1)
        for _ in range(100):
            s = rng.normal(size=model.state_dim)
            acts = [rng.normal(size=m) for m in model.action_dims]
            A, Bs = model.jacobians(1, s, acts)
            A_fd = central_difference_jacobian(lambda x: model.step(1, x, acts), s)
            assert np.linalg.norm(A - A_fd) / max(np.linalg.norm(A_fd), 1e-8) < 1e-4
            for j, B in enumerate(Bs):
                def step_a(a, j=j):
                    trial = [x.copy() for x in acts]
                    trial[j] = a
                    return model.step(1, s, trial)

                B_fd = central_difference_jacobian(step_a, acts[j])
                assert np.linalg.norm(B - B_fd) / max(np.linalg.norm(B_fd), 1e-8) < 1e-4

    def test_unicycle_heading_sensitivity(self):
        # d x' / d theta = -v sin(theta) dt at the evaluation point.
        dt = 0.1
        model = dynamics.unicycle(1, dt)
        s = np.array([0.3, -0.2, 0.9])
        a = [np.array([1.7, 0.4])]
        A, _ = model.jacobians(1, s, a)
        assert A[0, 2] == pytest.approx(-1.7 * np.sin(0.9) * dt)
        assert A[1, 2] == pytest.approx(1.7 * np.cos(0.9) * dt)


class TestPinOtherAgents:
    def test_single_agent_pin_is_identity(self, small_scenario):
        game = small_scenario.make_game(small_scenario.true_weights())
        replay = [np.zeros((game.horizon, m)) for m in game.action_dims]
        # Two-agent game: pinning keeps the joint state but one action channel.
        reduced = pin_other_agents(game, 0, replay)
        assert reduced.num_agents == 1
        assert reduced.state_dim == game.state_dim
        assert reduced.action_dims == game.action_dims[:1]

    def test_pinned_dynamics_uses_replayed_actions(self):
        # Two scalar agents, additive dynamics: s' = s + a1 + a2.
        A = np.array([[1.0]])
        game = GameSpec(
            dynamics=dynamics.linear(A, [A.copy(), A.copy()]),
            costs=(
                quadratic_cost(np.eye(1), np.zeros(1), [np.eye(1), np.zeros((1, 1))]),
                quadratic_cost(np.eye(1), np.zeros(1), [np.zeros((1, 1)), np.eye(1)]),
            ),
            horizon=3,
            noise=NoiseModel.none(1),
            initial_state=InitialState(mean=np.zeros(1)),
        )
        replay = [np.zeros((3, 1)), np.array([[1.0], [2.0], [4.0]])]
        reduced = pin_other_agents(game, 0, replay)
        policy = AffineGaussianPolicySet.zero(3, 1, (1,))
        traj = simulate_mean(reduced, policy)
        # Agent 0 applies zero; replayed agent adds 1 then 2.
        assert np.allclose(traj.states[:, 0], [0.0, 1.0, 3.0])


class TestValidation:
    def test_trajectory_rejects_nan(self):
        with pytest.raises(ValueError):
            Trajectory(states=np.array([[np.nan]]), actions=(np.zeros((1, 1)),))

    def test_noise_covariance_must_be_psd(self):
        with pytest.raises(ValueError):
            NoiseModel(np.eye(2), np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_game_requires_pd_own_action_cost(self):
        bad = CostModel(
            stage_cost=lambda t, s, a: 0.0,
            state_gradient=lambda t, s: np.zeros(1),
            state_hessian=lambda t, s: np.zeros((1, 1)),
            action_cost=(np.zeros((1, 1)),),
        )
        with pytest.raises(ValueError):
            GameSpec(
                dynamics=dynamics.linear(np.eye(1), [np.eye(1)]),
                costs=(bad,),
                horizon=2,
                noise=NoiseModel.none(1),
                initial_state=InitialState(mean=np.zeros(1)),
            )

    @pytest.mark.parametrize(
        "cross", [np.zeros((2, 2)), np.ones((2, 2)), np.diag([1.0, -1e-3])],
        ids=["zero", "singular_psd", "indefinite"],
    )
    def test_game_requires_psd_cross_action_cost(self, cross):
        costs = (
            quadratic_cost(np.eye(1), np.zeros(1), [np.eye(1), cross]),
            quadratic_cost(np.eye(1), np.zeros(1), [np.zeros((1, 1)), np.eye(2)]),
        )

        def make():
            return GameSpec(
                dynamics=dynamics.linear(np.eye(1), [np.ones((1, 1)), np.ones((1, 2))]),
                costs=costs,
                horizon=2,
                noise=NoiseModel.none(1),
                initial_state=InitialState(mean=np.zeros(1)),
            )

        if np.linalg.eigvalsh(cross)[0] >= 0.0:
            assert make().num_agents == 2
        else:
            with pytest.raises(ValueError, match=r"R\[0\]\[1\] must be positive semi-definite"):
                make()

    def test_temperatures_must_be_positive(self):
        with pytest.raises(ValueError):
            scalar_game().__class__(
                dynamics=dynamics.linear(np.eye(1), [np.eye(1)]),
                costs=(quadratic_cost(np.eye(1), np.zeros(1), [np.eye(1)]),),
                horizon=2,
                noise=NoiseModel.none(1),
                initial_state=InitialState(mean=np.zeros(1)),
                temperatures=(0.0,),
            )

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -float("inf")])
    def test_temperatures_must_be_finite(self, gamma):
        with pytest.raises(ValueError, match="positive and finite"):
            GameSpec(
                dynamics=dynamics.linear(np.eye(1), [np.eye(1)]),
                costs=(quadratic_cost(np.eye(1), np.zeros(1), [np.eye(1)]),),
                horizon=2,
                noise=NoiseModel.none(1),
                initial_state=InitialState(mean=np.zeros(1)),
                temperatures=(gamma,),
            )
