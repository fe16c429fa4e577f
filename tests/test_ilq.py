"""Iterative linearize-quadratize-solve loop for nonlinear games."""

import dataclasses

import numpy as np
import pytest

from ecegames import (
    AffineGaussianPolicySet,
    GameSpec,
    InitialState,
    LineSearchError,
    NoiseModel,
    NonConvergenceError,
    SolverConfig,
    dynamics,
    quadratic_cost,
    simulate_mean,
    solve_ece,
    solve_lq_ece,
)
from ecegames import ilq
from ecegames.config import parse_scenario
from ecegames.ilq import linearize, quadratize, stage_game_around
from ecegames.lq import LqStageGame

from conftest import game_spec_from_data, random_lq_data, shipped_game, stage_game_from_data
from oracles import absolute_offsets_per_step, finite_difference_jacobians

BIG_STEP = SolverConfig(max_step_deviation=1e9)


class TestLinearize:
    def test_linear_dynamics_give_constant_jacobians(self):
        rng = np.random.default_rng(2)
        A0 = rng.normal(size=(3, 3)) * 0.4
        B0 = rng.normal(size=(3, 2))
        game = game_spec_from_data(A0, [B0], [np.eye(3)], [np.zeros(3)], [[np.eye(2)]], 6, rng=rng)
        policy = AffineGaussianPolicySet.zero(6, 3, (2,))
        nominal = simulate_mean(game, policy)
        A, B = linearize(game, nominal)
        assert A.shape == (5, 3, 3)
        assert np.allclose(A, A0)
        assert np.allclose(B[0], B0)

    def test_constant_map_has_zero_jacobians(self):
        def step(t, s, actions):
            return np.zeros(1)

        dyn = dynamics.DynamicsModel(
            1, (1,), step, finite_difference_jacobians(step, 1, (1,))
        )
        game = GameSpec(
            dynamics=dyn,
            costs=(quadratic_cost(np.eye(1), np.zeros(1), [np.eye(1)]),),
            horizon=4,
            noise=NoiseModel.none(1),
            initial_state=InitialState(mean=np.ones(1)),
        )
        nominal = simulate_mean(game, AffineGaussianPolicySet.zero(4, 1, (1,)))
        A, B = linearize(game, nominal)
        assert np.max(np.abs(A)) < 1e-6
        assert np.max(np.abs(B[0])) < 1e-6

    def test_unicycle_jacobian_at_nominal(self, small_scenario):
        dt = 0.2
        model = dynamics.unicycle(1, dt)
        game = GameSpec(
            dynamics=model,
            costs=(quadratic_cost(np.eye(3), np.zeros(3), [np.eye(2)]),),
            horizon=3,
            noise=NoiseModel.none(3),
            initial_state=InitialState(mean=np.array([0.0, 0.0, 0.5])),
        )
        policy = AffineGaussianPolicySet(
            gains=(np.zeros((3, 2, 3)),),
            offsets=(np.tile([-1.0, 0.0], (3, 1)),),  # constant speed 1
            covariances=(np.tile(np.eye(2), (3, 1, 1)),),
            nominal_states=np.zeros((3, 3)),
            nominal_actions=(np.zeros((3, 2)),),
        )
        nominal = simulate_mean(game, policy)
        A, _ = linearize(game, nominal)
        theta = nominal.states[0, 2]
        assert A[0][0, 2] == pytest.approx(-1.0 * np.sin(theta) * dt)


class TestQuadratize:
    def test_pure_quadratic_cost_is_exact(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(3, 3))
        Q0 = M.T @ M + 0.1 * np.eye(3)
        game = game_spec_from_data(
            np.eye(3) * 0.5, [rng.normal(size=(3, 2))], [Q0], [np.zeros(3)],
            [[np.eye(2)]], 4, rng=rng,
        )
        nominal = simulate_mean(game, AffineGaussianPolicySet.zero(4, 3, (2,)))
        Q, l, r = quadratize(game, nominal)
        for k in range(4):
            assert np.allclose(Q[0][k], Q0)
            assert np.allclose(l[0][k], Q0 @ nominal.states[k])

    def test_proximity_gradient_vanishes_at_contact(self, small_scenario):
        # Both agents at the same position: the proximity peak is stationary.
        prox = small_scenario.basis.agents[0][2]
        s = np.zeros(small_scenario.state_dim)
        assert np.max(np.abs(prox.state_gradient(1, s))) == 0.0
        assert prox.value(1, s, None) == pytest.approx(1.0)

    def test_linear_action_terms_recentre_on_nominal_actions(self, small_scenario):
        game = small_scenario.make_game(small_scenario.true_weights())
        policy = AffineGaussianPolicySet.zero(game.horizon, game.state_dim, game.action_dims)
        nominal = simulate_mean(game, policy)
        # Make nominal actions nonzero so the linear terms have something to see.
        shifted = AffineGaussianPolicySet(
            gains=policy.gains,
            offsets=tuple(np.full_like(a, -0.3) for a in policy.offsets),
            covariances=policy.covariances,
            nominal_states=policy.nominal_states,
            nominal_actions=policy.nominal_actions,
        )
        nominal = simulate_mean(game, shifted)
        _, _, r = quadratize(game, nominal)
        assert any(np.max(np.abs(r_i)) > 0.0 for r_i in r)
        # The terms equal 2 R abar with R the model's own action block.
        R00 = game.costs[0].action_cost[0]
        for k in range(game.horizon):
            assert np.allclose(r[0][k], 2.0 * R00 @ nominal.actions[0][k])

    def test_indefinite_hessian_projected_psd(self, small_scenario):
        game = small_scenario.make_game(small_scenario.true_weights())
        policy = AffineGaussianPolicySet.zero(game.horizon, game.state_dim, game.action_dims)
        nominal = simulate_mean(game, policy)  # agents start close to crossing point
        Q, _, _ = quadratize(game, nominal)
        for i in range(2):
            for k in range(game.horizon):
                evals = np.linalg.eigvalsh(Q[i][k])
                assert evals.min() >= -1e-12


class TestSolveEce:
    def test_lq_game_converges_in_two_iterations(self):
        rng = np.random.default_rng(8)
        data = random_lq_data(rng, num_agents=2)
        game = game_spec_from_data(*data, rng=rng)
        sol = solve_ece(game, config=BIG_STEP)
        assert sol.trace.converged
        assert len(sol.trace) == 2

    def test_lq_consistency_with_direct_solver(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            data = random_lq_data(rng)
            game = game_spec_from_data(*data, rng=rng)
            direct = solve_lq_ece(stage_game_from_data(*data), game.temperatures)
            sol = solve_ece(game, config=BIG_STEP)
            P_it, al_it = sol.policies.gains, absolute_offsets_per_step(sol.policies)
            P_d, al_d = direct.policies.gains, absolute_offsets_per_step(direct.policies)
            for i in range(game.num_agents):
                assert np.max(np.abs(P_it[i] - P_d[i])) < 1e-8
                assert np.max(np.abs(al_it[i] - al_d[i])) < 1e-8
                assert np.max(
                    np.abs(sol.policies.covariances[i] - direct.policies.covariances[i])
                ) < 1e-8

    def test_warm_start_converges_immediately(self, small_scenario):
        game = small_scenario.make_game(small_scenario.true_weights())
        cfg = small_scenario.solver_config
        cold = solve_ece(game, config=cfg)
        warm = solve_ece(game, init=cold.policies, config=cfg)
        assert warm.trace.converged
        assert len(warm.trace) == 1

    def test_stationarity_of_resolve(self, small_scenario):
        game = small_scenario.make_game(small_scenario.true_weights())
        cfg = small_scenario.solver_config
        first = solve_ece(game, config=cfg)
        second = solve_ece(game, init=first.policies, config=cfg)
        dev = np.max(
            np.linalg.norm(
                first.policies.nominal_states - second.policies.nominal_states, axis=1
            )
        )
        assert dev < cfg.convergence_tol

    def test_collision_scenario_converges_with_avoidance(self, small_scenario):
        game = small_scenario.make_game(small_scenario.true_weights())
        sol = solve_ece(game, config=small_scenario.solver_config)
        assert sol.trace.converged
        assert len(sol.trace) <= 50
        nom = sol.policies.nominal_states
        idx = small_scenario.position_indices
        dist = np.linalg.norm(nom[:, idx[0]] - nom[:, idx[1]], axis=1)
        # With zero proximity weight the straight paths intersect; solved paths keep
        # a separation comparable to the feature length scale.
        assert dist.min() > 0.3

    def test_crossing_keeps_the_agents_apart(self, crossing_scenario):
        # The cold crossing solve leaves the near-collision stationary point
        # (closest approach 0.029) for the swerve (0.648 at t = 31); the
        # golden digests and criterion 4 cannot tell the two apart.
        game = crossing_scenario.make_game(crossing_scenario.true_weights())
        sol = solve_ece(game, config=crossing_scenario.solver_config)
        assert sol.trace.converged
        nom = sol.policies.nominal_states
        idx = crossing_scenario.position_indices
        dist = np.linalg.norm(nom[:, idx[0]] - nom[:, idx[1]], axis=1)
        assert dist.min() >= 0.3

    def test_mean_rollout_reproduces_nominal_exactly(self, small_scenario):
        # Linear dynamics roll out through the closed loop, which reproduces
        # the nominal to rounding; the unicycle test below asks for equality.
        game = small_scenario.make_game(small_scenario.true_weights())
        sol = solve_ece(game, config=small_scenario.solver_config)
        rolled = simulate_mean(game, sol.policies)
        nom = sol.policies.nominal_states
        assert np.max(np.abs(rolled.states - nom)) <= 1e-12 * np.max(np.abs(nom))

    def test_unicycle_mean_rollout_reproduces_nominal_exactly(self, small_scenario):
        doc = small_scenario.to_dict()
        doc["dynamics"] = {"kind": "unicycle"}
        scenario = parse_scenario(doc)
        game = scenario.make_game(scenario.true_weights())
        sol = solve_ece(game, config=scenario.solver_config)
        rolled = simulate_mean(game, sol.policies)
        assert np.array_equal(rolled.states, sol.policies.nominal_states)

    def test_step_sizes_reset_and_deviations_recorded(self, small_scenario):
        game = small_scenario.make_game(small_scenario.true_weights())
        sol = solve_ece(game, config=small_scenario.solver_config)
        devs = [rec.max_deviation for rec in sol.trace.records]
        steps = [rec.step_size for rec in sol.trace.records]
        assert all(np.isfinite(d) for d in devs)
        assert devs[-1] < small_scenario.solver_config.convergence_tol
        assert all(0.0 < e <= 1.0 for e in steps)

    def test_non_convergence_carries_trace(self, small_scenario):
        game = small_scenario.make_game(small_scenario.true_weights())
        cfg = SolverConfig(max_iterations=2, convergence_tol=1e-12, max_step_deviation=10.0)
        with pytest.raises(NonConvergenceError) as err:
            solve_ece(game, config=cfg)
        assert err.value.trace is not None and len(err.value.trace) == 2
        assert err.value.policies is not None

    def test_line_search_failure_when_threshold_unreachable(self):
        rng = np.random.default_rng(10)
        data = random_lq_data(rng, num_agents=1, n=2, horizon=8)
        game = game_spec_from_data(*data, s1=np.array([5.0, -4.0]))
        cfg = SolverConfig(max_step_deviation=1e-9)
        with pytest.raises(LineSearchError):
            solve_ece(game, config=cfg)

    def test_line_search_halves_then_accepts(self, config_dir):
        # A threshold at 3/4 of the full first step's deviation makes the
        # first iteration halve once; the half step leaves half the distance,
        # which the next full step covers, and the solve converges where the
        # undamped one does.
        scenario, game = shipped_game(config_dir, "lq_tracking")
        full = solve_ece(game, config=scenario.solver_config)
        first = full.trace.records[0]
        assert first.step_size == 1.0
        cfg = dataclasses.replace(scenario.solver_config,
                                  max_step_deviation=0.75 * first.max_deviation)
        damped = solve_ece(game, config=cfg)
        assert [rec.step_size for rec in damped.trace.records] == [0.5, 1.0, 1.0]
        assert damped.trace.converged
        # Agreement to rounding: 5.6e-16 measured, on states of size about 1.
        tol = 1e-12
        a, b = full.policies, damped.policies
        for x, y in zip((a.nominal_states, *a.gains, *a.offsets, *a.nominal_actions),
                        (b.nominal_states, *b.gains, *b.offsets, *b.nominal_actions)):
            assert np.max(np.abs(x - y)) <= tol

    def test_temperatures_scale_solution_covariances(self):
        rng = np.random.default_rng(12)
        data = random_lq_data(rng, num_agents=2)
        base_game = game_spec_from_data(*data, rng=rng)
        hot_game = GameSpec(
            dynamics=base_game.dynamics,
            costs=base_game.costs,
            horizon=base_game.horizon,
            noise=base_game.noise,
            initial_state=base_game.initial_state,
            temperatures=(2.0, 2.0),
        )
        base = solve_ece(base_game, config=BIG_STEP)
        hot = solve_ece(hot_game, config=BIG_STEP)
        for i in range(2):
            assert np.array_equal(base.policies.gains[i], hot.policies.gains[i])
            assert np.allclose(
                hot.policies.covariances[i], 2.0 * base.policies.covariances[i], rtol=1e-12
            )


class TestStageGameOncePerSolve:
    """With linear dynamics a solve builds the stage game's dynamics half on
    its first iteration and lays out only the costs after that; the stage
    game each iteration solves is the one a full build gives, byte for byte."""

    @pytest.mark.parametrize("name", ["two_agent_crossing", "three_agent_ring", "lq_tracking"])
    def test_refreshed_stage_games_equal_fresh_builds(self, config_dir, name, monkeypatch):
        scenario, game = shipped_game(config_dir, name)
        nominals, stages = [], []

        def spy_quadratize(game, nominal):
            nominals.append(nominal)
            return quadratize(game, nominal)

        def spy_solve(stage, temperatures):
            stages.append(stage)
            return solve_lq_ece(stage, temperatures)

        monkeypatch.setattr(ilq, "quadratize", spy_quadratize)
        monkeypatch.setattr(ilq, "solve_lq_ece", spy_solve)
        iterations = len(solve_ece(game, config=scenario.solver_config).trace)
        monkeypatch.undo()
        assert len(nominals) == len(stages) == iterations >= 2
        for nominal, stage in zip(nominals, stages):
            fresh = stage_game_around(game, nominal)
            for field in dataclasses.fields(LqStageGame):
                got, want = getattr(stage, field.name), getattr(fresh, field.name)
                if isinstance(want, tuple):
                    assert got == want, field.name
                else:
                    assert got.shape == want.shape and got.dtype == want.dtype, field.name
                    assert got.tobytes() == want.tobytes(), field.name

    @pytest.mark.parametrize(
        "name", ["two_agent_crossing", "three_agent_ring", "lq_tracking", "lq_tracking_unicycle"]
    )
    def test_linearize_once_per_linear_solve(self, config_dir, name, monkeypatch):
        scenario, game = shipped_game(config_dir, name)
        calls = []

        def spy(game, nominal):
            calls.append(nominal)
            return linearize(game, nominal)

        monkeypatch.setattr(ilq, "linearize", spy)
        iterations = len(solve_ece(game, config=scenario.solver_config).trace)
        assert iterations >= 2
        assert len(calls) == (iterations if name.endswith("_unicycle") else 1)
