"""Inverse learning: feature means, Monte-Carlo expectations, weight updates."""

import numpy as np
import pytest
from dataclasses import replace

from ecegames import (
    GameSpec,
    InitialState,
    LearnConfig,
    NoiseModel,
    SolverConfig,
    Trajectory,
    TrajectoryBatch,
    dynamics,
    eval_features,
    make_cost_model,
    rollout_batch,
    run_mairl,
    simulate_mean,
    solve_ece,
)
from ecegames.features import ControlEffort, FeatureBasis, ReferenceTracking
from ecegames.irl import (
    LearnSolveError,
    empirical_feature_mean,
    estimate_feature_expectation,
    update_weights,
)

from conftest import stack_trajectories
from oracles import mean_actions_per_agent


def scalar_tracking_scenario(horizon=2, target=0.5, noise=False, temperature=1.0):
    """One agent on the line, s' = s + a, tracking a fixed point plus effort."""
    ref = np.full((horizon, 1), target)
    basis = FeatureBasis(
        agents=((ReferenceTracking(np.array([0]), ref), ControlEffort(agent=0)),),
        position_indices=(np.array([0]),),
    )

    def factory(weights):
        costs = make_cost_model(basis, weights, (1,))
        return GameSpec(
            dynamics=dynamics.linear(np.eye(1), [np.eye(1)]),
            costs=costs,
            horizon=horizon,
            noise=NoiseModel(np.eye(1), np.eye(1)) if noise else NoiseModel.none(1),
            initial_state=InitialState(mean=np.zeros(1)),
            temperatures=(temperature,),
        )

    return basis, factory


class TestEmpiricalFeatureMean:
    def test_single_trajectory_equals_feature_sums(self, small_scenario):
        game = small_scenario.make_game(small_scenario.true_weights())
        sol = solve_ece(game, config=small_scenario.solver_config)
        batch = rollout_batch(game, sol.policies, 1, 0)
        means = empirical_feature_mean(small_scenario.basis, batch)
        sums = eval_features(small_scenario.basis, batch[0])
        for m, s in zip(means, sums):
            assert np.allclose(m, s)

    def test_arithmetic_mean_of_two(self):
        basis, _ = scalar_tracking_scenario(horizon=3)
        t1 = Trajectory(states=np.zeros((3, 1)), actions=(np.array([[np.sqrt(2)], [0.0], [0.0]]),))
        t2 = Trajectory(states=np.zeros((3, 1)), actions=(np.array([[2.0], [0.0], [0.0]]),))
        means = empirical_feature_mean(basis, stack_trajectories((t1, t2)))
        assert means[0][1] == pytest.approx(3.0)

    def test_order_invariance(self, small_scenario):
        game = small_scenario.make_game(small_scenario.true_weights())
        sol = solve_ece(game, config=small_scenario.solver_config)
        batch = rollout_batch(game, sol.policies, 5, 0)
        fwd = empirical_feature_mean(small_scenario.basis, batch)
        rev = empirical_feature_mean(
            small_scenario.basis, stack_trajectories(reversed(list(batch)))
        )
        for a, b in zip(fwd, rev):
            assert np.allclose(a, b)

    def test_empty_batch_rejected(self, small_scenario):
        with pytest.raises(ValueError, match="empty"):
            TrajectoryBatch(states=np.zeros((0, 3, 1)), actions=(np.zeros((0, 3, 1)),))


class TestEstimateFeatureExpectation:
    def test_degenerate_sampling_matches_mean_trajectory(self):
        basis, factory = scalar_tracking_scenario(horizon=4, temperature=1e-12)
        game = factory([np.array([2.0, 1.0])])
        means, policies, _ = estimate_feature_expectation(game, basis, 1, 0)
        ref = eval_features(basis, simulate_mean(game, policies))
        assert np.max(np.abs(means[0] - ref[0])) < 1e-5

    def test_seed_determinism(self):
        basis, factory = scalar_tracking_scenario(horizon=3, noise=True)
        game = factory([np.array([2.0, 1.0])])
        a, _, _ = estimate_feature_expectation(game, basis, 20, 7)
        b, _, _ = estimate_feature_expectation(game, basis, 20, 7)
        assert np.array_equal(a[0], b[0])

    def test_effort_expectation_matches_gaussian_moments(self):
        # Two-step game, no process noise: E sum ||a_t||^2 has a closed form
        # from the solved policy moments (terminal gain is always zero).
        basis, factory = scalar_tracking_scenario(horizon=2, target=0.8)
        game = factory([np.array([3.0, 1.0])])
        p = 2000
        means, policies, _ = estimate_feature_expectation(game, basis, p, 123)
        s1 = game.initial_state.mean
        mu1 = mean_actions_per_agent(policies, 0, s1)[0]
        closed = (
            float(mu1 @ mu1)
            + float(np.trace(policies.covariances[0][0]))
            + float(np.trace(policies.covariances[0][1]))
        )
        samples = rollout_batch(game, policies, p, 123)
        efforts = np.array([eval_features(basis, t)[0][1] for t in samples])
        se = efforts.std(ddof=1) / np.sqrt(p)
        assert abs(means[0][1] - closed) < 3.0 * se


class TestUpdateWeights:
    def test_identity_at_feature_match(self):
        w = np.array([1.0, 2.0, 3.0])
        new, floored = update_weights(w, np.zeros(3), 0.1, effort_index=2, effort_floor=1e-3)
        assert np.array_equal(new, w)
        assert not floored

    def test_excess_model_proximity_raises_weight(self):
        # The model's proximity sum exceeds the demos', so the gap is negative.
        w = np.array([1.0])
        new, _ = update_weights(w, np.array([-1.5]), 0.1, effort_index=0, effort_floor=1e-3)
        assert new[0] == pytest.approx(1.0 + 0.1 * 1.5)

    def test_zero_learning_rate_is_identity(self):
        w = np.array([1.0, 2.0])
        new, _ = update_weights(
            w, np.array([9.0, -4.0]), 0.0, effort_index=1, effort_floor=1e-3
        )
        assert np.array_equal(new, w)

    def test_effort_floor(self):
        w = np.array([1.0, 0.01])
        new, floored = update_weights(
            w, np.array([0.0, 1.0]), 0.5, effort_index=1, effort_floor=1e-3
        )
        assert floored
        assert new[1] == pytest.approx(1e-3)


class TestRunMairl:
    def test_fixed_point_at_true_weights(self, small_scenario):
        true_w = small_scenario.true_weights()
        game = small_scenario.make_game(true_w)
        sol = solve_ece(game, config=small_scenario.solver_config)
        demos = rollout_batch(game, sol.policies, 400, 500)
        cfg = replace(small_scenario.learn_config, samples_per_expectation=250, base_seed=9)
        weights, trace = run_mairl(
            small_scenario.make_game,
            small_scenario.basis,
            demos,
            true_w,
            cfg,
            solver_config=small_scenario.solver_config,
        )
        assert trace.converged
        assert trace.records[-1].iteration == 1
        for w, w0 in zip(weights, true_w):
            assert np.max(np.abs(w - w0)) < cfg.learning_rate * 0.5

    def test_seed_determinism(self, small_scenario):
        true_w = small_scenario.true_weights()
        game = small_scenario.make_game(true_w)
        sol = solve_ece(game, config=small_scenario.solver_config)
        demos = rollout_batch(game, sol.policies, 30, 500)
        cfg = replace(
            small_scenario.learn_config,
            samples_per_expectation=5,
            max_outer_iterations=3,
            residual_tol=1e-9,
        )
        w_a, trace_a = run_mairl(
            small_scenario.make_game, small_scenario.basis, demos,
            [np.ones(3), np.ones(3)], cfg, solver_config=small_scenario.solver_config,
        )
        w_b, trace_b = run_mairl(
            small_scenario.make_game, small_scenario.basis, demos,
            [np.ones(3), np.ones(3)], cfg, solver_config=small_scenario.solver_config,
        )
        for a, b in zip(w_a, w_b):
            assert np.array_equal(a, b)
        assert [r.residual for r in trace_a.records] == [r.residual for r in trace_b.records]

    def test_single_agent_modes_identical(self):
        basis, factory = scalar_tracking_scenario(horizon=6, noise=True)
        game = factory([np.array([2.0, 1.0])])
        demos = []
        sol = solve_ece(game, config=SolverConfig())
        demos = rollout_batch(game, sol.policies, 40, 800)
        results = {}
        for mode in ("joint", "independent"):
            cfg = LearnConfig(
                learning_rate=0.1,
                samples_per_expectation=8,
                max_outer_iterations=4,
                residual_tol=1e-9,
                mode=mode,
                base_seed=4,
            )
            w, trace = run_mairl(factory, basis, demos, [np.array([1.0, 1.0])], cfg)
            results[mode] = (w, [r.residual for r in trace.records])
        assert np.array_equal(results["joint"][0][0], results["independent"][0][0])
        assert results["joint"][1] == results["independent"][1]

    def test_monotone_residual_trend(self, small_scenario):
        true_w = small_scenario.true_weights()
        game = small_scenario.make_game(true_w)
        sol = solve_ece(game, config=small_scenario.solver_config)
        demos = rollout_batch(game, sol.policies, 100, 500)
        cfg = replace(small_scenario.learn_config, base_seed=13)
        weights, trace = run_mairl(
            small_scenario.make_game, small_scenario.basis, demos,
            [np.ones(3), np.ones(3)], cfg, solver_config=small_scenario.solver_config,
        )
        per_sweep = {}
        for rec in trace.records:
            per_sweep[rec.iteration] = per_sweep.get(rec.iteration, 0.0) + rec.residual
        totals = [per_sweep[k] for k in sorted(per_sweep)]
        window = min(10, max(1, len(totals) // 2))
        assert np.mean(totals[-window:]) < np.mean(totals[:window])

    def test_negative_base_seed_rejected_at_construction(self, small_scenario):
        with pytest.raises(ValueError, match="base_seed must be non-negative"):
            replace(small_scenario.learn_config, base_seed=-5)
        with pytest.raises(ValueError, match="base_seed must be non-negative"):
            LearnConfig(base_seed=-1)

    def test_solver_failure_carries_weights(self):
        basis, factory = scalar_tracking_scenario(horizon=30, noise=True)
        bad_cfg = SolverConfig(max_iterations=1, convergence_tol=1e-14)
        demos_game = factory([np.array([2.0, 1.0])])
        sol = solve_ece(demos_game, config=SolverConfig())
        demos = rollout_batch(demos_game, sol.policies, 5, 0)
        with pytest.raises(LearnSolveError) as err:
            run_mairl(
                factory, basis, demos, [np.array([1.0, 1.0])],
                LearnConfig(samples_per_expectation=2), solver_config=bad_cfg,
            )
        assert len(err.value.weights) == 1

    def test_non_convergence_returns_flagged_best(self, small_scenario):
        true_w = small_scenario.true_weights()
        game = small_scenario.make_game(true_w)
        sol = solve_ece(game, config=small_scenario.solver_config)
        demos = rollout_batch(game, sol.policies, 20, 500)
        cfg = replace(
            small_scenario.learn_config,
            max_outer_iterations=2,
            residual_tol=1e-9,
            samples_per_expectation=4,
        )
        weights, trace = run_mairl(
            small_scenario.make_game, small_scenario.basis, demos,
            [np.ones(3), np.ones(3)], cfg, solver_config=small_scenario.solver_config,
        )
        assert not trace.converged
        assert len(weights) == 2
