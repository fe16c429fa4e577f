"""Inverse learning: feature means, model expectations, weight updates."""

import numpy as np
import pytest
from dataclasses import replace

from ecegames import (
    GameSpec,
    InitialState,
    LearnConfig,
    LineSearchError,
    NoiseModel,
    SolverConfig,
    Trajectory,
    TrajectoryBatch,
    dynamics,
    eval_features,
    irl,
    make_cost_model,
    pin_other_agents,
    rollout_batch,
    run_mairl,
    simulate_mean,
    solve_ece,
)
from ecegames.features import (
    ControlEffort,
    FeatureBasis,
    ReferenceTracking,
    expected_feature_sums,
)
from ecegames.irl import (
    LearnSolveError,
    empirical_feature_mean,
    estimate_feature_expectation,
    update_weights,
)
from ecegames.simulate import rollout_moments

from conftest import stack_trajectories
from oracles import mean_actions_per_agent


def policies_equal(a, b) -> bool:
    """Whether two policy sets hold equal arrays in every field."""
    fields = ("gains", "offsets", "covariances", "nominal_actions")
    return np.array_equal(a.nominal_states, b.nominal_states) and all(
        len(getattr(a, f)) == len(getattr(b, f))
        and all(np.array_equal(x, y) for x, y in zip(getattr(a, f), getattr(b, f)))
        for f in fields
    )


def scalar_tracking_scenario(horizon=2, target=0.5, noise=False, temperature=1.0):
    """One agent on the line, s' = s + a, tracking a fixed point plus effort."""
    ref = np.full((horizon, 1), target)
    basis = FeatureBasis(agents=((ReferenceTracking(np.array([0]), ref), ControlEffort(agent=0)),))

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
        policies = solve_ece(game).policies
        means = estimate_feature_expectation(game, basis.agents[0], policies)
        ref = eval_features(basis, simulate_mean(game, policies))
        assert np.max(np.abs(means - ref[0])) < 1e-5

    def test_effort_expectation_matches_gaussian_moments(self):
        # Two-step game, no process noise: E sum ||a_t||^2 has a closed form
        # from the solved policy moments (terminal gain is always zero).
        basis, factory = scalar_tracking_scenario(horizon=2, target=0.8)
        game = factory([np.array([3.0, 1.0])])
        p = 2000
        policies = solve_ece(game).policies
        means = estimate_feature_expectation(game, basis.agents[0], policies)
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
        assert means[1] == pytest.approx(closed, rel=1e-12)
        assert abs(efforts.mean() - closed) < 3.0 * se


class TestUpdateWeights:
    def test_identity_at_feature_match(self):
        w = np.array([1.0, 2.0, 3.0])
        new, floored = update_weights(w, np.zeros(3), 0.1, effort_index=2)
        assert np.array_equal(new, w)
        assert not floored

    def test_excess_model_proximity_raises_weight(self):
        # The model's proximity sum exceeds the demos', so the gap is negative.
        w = np.array([1.0])
        new, _ = update_weights(w, np.array([-1.5]), 0.1, effort_index=0)
        assert new[0] == pytest.approx(1.0 + 0.1 * 1.5)

    def test_zero_learning_rate_is_identity(self):
        w = np.array([1.0, 2.0])
        new, _ = update_weights(w, np.array([9.0, -4.0]), 0.0, effort_index=1)
        assert np.array_equal(new, w)

    def test_effort_floor(self):
        w = np.array([1.0, 0.01])
        new, floored = update_weights(w, np.array([0.0, 1.0]), 0.5, effort_index=1)
        assert floored
        assert new[1] == irl.EFFORT_WEIGHT_FLOOR == 1e-3


@pytest.fixture(scope="module")
def small_demos(small_scenario):
    game = small_scenario.make_game(small_scenario.true_weights())
    sol = solve_ece(game, config=small_scenario.solver_config)
    return rollout_batch(game, sol.policies, 10, 500)


class TestDemoStart:
    def test_zero_feedback_around_mean_actions(self, small_demos):
        means = [np.mean(a, axis=0) for a in small_demos.actions]
        for agent, start in [(None, irl.demo_start(small_demos)),
                             (1, irl.demo_start(small_demos, 1))]:
            agents = range(2) if agent is None else [agent]
            assert start.num_agents == len(agents)
            for k, i in enumerate(agents):
                assert np.array_equal(start.nominal_actions[k], means[i])
                assert not start.gains[k].any() and not start.offsets[k].any()
                assert np.array_equal(start.covariances[k], np.tile(np.eye(2), (20, 1, 1)))
            assert np.array_equal(start.nominal_states, np.zeros((20, 4 * 2)))

    @pytest.mark.parametrize("mode", ["joint", "independent"])
    def test_first_solve_of_each_game_starts_from_the_demos(
        self, monkeypatch, small_scenario, small_demos, mode
    ):
        inits = []

        def spy(game, init=None, config=None):
            inits.append(init)
            return solve_ece(game, init=init, config=config)

        monkeypatch.setattr(irl, "solve_ece", spy)
        cfg = replace(small_scenario.learn_config, max_outer_iterations=2)
        run_mairl(small_scenario.make_game, small_scenario.basis, small_demos,
                  [np.ones(3), np.ones(3)], cfg, mode=mode,
                  solver_config=small_scenario.solver_config)
        # joint: one game, solved and started once per sweep; independent:
        # each agent's reduced game, started from its own agent's mean actions.
        firsts = [None] if mode == "joint" else [0, 1]
        assert len(inits) == 2 * len(firsts) and all(init is not None for init in inits)
        for k, init in enumerate(inits):
            demo = irl.demo_start(small_demos, firsts[k % len(firsts)])
            assert policies_equal(init, demo) == (k < len(firsts))
            assert init.num_agents == (2 if mode == "joint" else 1)


class TestRunMairl:
    def test_fixed_point_at_true_weights(self, small_scenario):
        true_w = small_scenario.true_weights()
        game = small_scenario.make_game(true_w)
        sol = solve_ece(game, config=small_scenario.solver_config)
        demos = rollout_batch(game, sol.policies, 400, 500)
        cfg = small_scenario.learn_config
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

    def test_single_agent_modes_identical(self):
        basis, factory = scalar_tracking_scenario(horizon=6, noise=True)
        game = factory([np.array([2.0, 1.0])])
        demos = []
        sol = solve_ece(game, config=SolverConfig())
        demos = rollout_batch(game, sol.policies, 40, 800)
        results = {}
        for mode in ("joint", "independent"):
            cfg = LearnConfig(learning_rate=0.1, max_outer_iterations=4, residual_tol=1e-9)
            w, trace = run_mairl(factory, basis, demos, [np.array([1.0, 1.0])], cfg, mode=mode)
            results[mode] = (w, [r.residual for r in trace.records])
        assert np.array_equal(results["joint"][0][0], results["independent"][0][0])
        assert results["joint"][1] == results["independent"][1]

    def test_monotone_residual_trend(self, small_scenario):
        true_w = small_scenario.true_weights()
        game = small_scenario.make_game(true_w)
        sol = solve_ece(game, config=small_scenario.solver_config)
        demos = rollout_batch(game, sol.policies, 100, 500)
        weights, trace = run_mairl(
            small_scenario.make_game, small_scenario.basis, demos,
            [np.ones(3), np.ones(3)], small_scenario.learn_config,
            solver_config=small_scenario.solver_config,
        )
        per_sweep = {}
        for rec in trace.records:
            per_sweep[rec.iteration] = per_sweep.get(rec.iteration, 0.0) + rec.residual
        totals = [per_sweep[k] for k in sorted(per_sweep)]
        window = min(10, max(1, len(totals) // 2))
        assert np.mean(totals[-window:]) < np.mean(totals[:window])

    @pytest.mark.parametrize("run, message", [
        pytest.param({"mode": "both"}, "unknown mode 'both'", id="unknown-mode"),
    ])
    def test_run_choices_checked_before_learning(self, small_scenario, run, message):
        with pytest.raises(ValueError, match=message):
            run_mairl(small_scenario.make_game, small_scenario.basis, None, [], **run)

    def test_solver_failure_carries_weights(self):
        basis, factory = scalar_tracking_scenario(horizon=30, noise=True)
        bad_cfg = SolverConfig(max_iterations=1, convergence_tol=1e-14)
        demos_game = factory([np.array([2.0, 1.0])])
        sol = solve_ece(demos_game, config=SolverConfig())
        demos = rollout_batch(demos_game, sol.policies, 5, 0)
        with pytest.raises(LearnSolveError) as err:
            run_mairl(
                factory, basis, demos, [np.array([1.0, 1.0])],
                LearnConfig(), solver_config=bad_cfg,
            )
        assert len(err.value.weights) == 1

    def test_failed_warm_start_falls_back_to_cold(self, monkeypatch, small_scenario):
        game = small_scenario.make_game(small_scenario.true_weights())
        sol = solve_ece(game, config=small_scenario.solver_config)
        demos = rollout_batch(game, sol.policies, 10, 500)
        cfg = replace(small_scenario.learn_config, max_outer_iterations=2)
        starts = []
        demo = irl.demo_start(demos)

        def start_of(init):
            if init is None:
                return "cold"
            return "demo" if policies_equal(init, demo) else "warm"

        def learn(solve):
            starts.clear()
            monkeypatch.setattr(irl, "solve_ece", solve)
            return run_mairl(
                small_scenario.make_game, small_scenario.basis, demos,
                [np.ones(3), np.ones(3)], cfg, solver_config=small_scenario.solver_config,
            )

        def cold_only(game, init=None, config=None):
            return solve_ece(game, config=config)

        def started_fails(game, init=None, config=None):
            starts.append(start_of(init))
            if init is not None:
                raise LineSearchError(iteration=1, min_step=1e-3)
            return solve_ece(game, config=config)

        def all_but_first_fail(game, init=None, config=None):
            starts.append(start_of(init))
            if len(starts) > 1:
                raise LineSearchError(iteration=1, min_step=1e-3)
            return solve_ece(game, init=init, config=config)

        # The first sweep's solve tries the demo start and every later one
        # its warm start, each then solves cold, and learns exactly what cold
        # solves alone learn; every record flags the fallback.
        weights, trace = learn(started_fails)
        assert starts == ["demo", "cold", "warm", "cold"]
        cold_weights, cold_trace = learn(cold_only)
        for a, b in zip(weights + [r.weights for r in trace.records],
                        cold_weights + [r.weights for r in cold_trace.records], strict=True):
            assert np.array_equal(a, b)
        assert [r.residual for r in trace.records] == [r.residual for r in cold_trace.records]
        assert all(r.cold_fallback for r in trace.records)
        assert not any(r.cold_fallback for r in cold_trace.records)

        # A joint failure is the sweep's, not an agent's; the sweeps before
        # it stay in the trace.
        message = "^equilibrium solve failed in sweep 2: line search"
        with pytest.raises(LearnSolveError, match=message) as err:
            learn(all_but_first_fail)
        assert (err.value.sweep, err.value.agent) == (2, None)
        assert starts == ["demo", "warm", "cold"]
        assert [(r.iteration, r.agent) for r in err.value.trace.records] == [(1, 0), (1, 1)]

    def test_non_convergence_returns_flagged_best(self, small_scenario):
        true_w = small_scenario.true_weights()
        game = small_scenario.make_game(true_w)
        sol = solve_ece(game, config=small_scenario.solver_config)
        demos = rollout_batch(game, sol.policies, 20, 500)
        cfg = replace(
            small_scenario.learn_config,
            max_outer_iterations=2,
            residual_tol=1e-9,
        )
        weights, trace = run_mairl(
            small_scenario.make_game, small_scenario.basis, demos,
            [np.ones(3), np.ones(3)], cfg, solver_config=small_scenario.solver_config,
        )
        assert not trace.converged
        assert len(weights) == 2

    @pytest.mark.parametrize("mode, names", [
        ("joint", "in sweep 1: "), ("independent", "in sweep 1 on agent 0's reduced game: "),
    ])
    def test_failure_names_the_game_that_failed(self, mode, names):
        basis, factory = scalar_tracking_scenario(horizon=30, noise=True)
        game = factory([np.array([2.0, 1.0])])
        demos = rollout_batch(game, solve_ece(game).policies, 5, 0)
        bad_cfg = SolverConfig(max_iterations=1, convergence_tol=1e-14)
        with pytest.raises(LearnSolveError) as err:
            run_mairl(factory, basis, demos, [np.array([1.0, 1.0])], mode=mode,
                      solver_config=bad_cfg)
        assert str(err.value).startswith("equilibrium solve failed " + names)
        assert (err.value.sweep, err.value.agent) == (1, None if mode == "joint" else 0)

    @pytest.mark.parametrize("mode", irl.MODES)
    @pytest.mark.parametrize("budget", [3, 60], ids=["capped", "converged"])
    def test_returned_weights_remeasure_bit_for_bit(
        self, monkeypatch, small_scenario, mode, budget
    ):
        true_w = small_scenario.true_weights()
        game = small_scenario.make_game(true_w)
        demos = rollout_batch(game, solve_ece(game, config=small_scenario.solver_config).policies,
                              100, 500)
        starts = []

        def spy(game, init=None, config=None):
            starts.append(init)
            return solve_ece(game, init=init, config=config)

        monkeypatch.setattr(irl, "solve_ece", spy)
        basis, solver = small_scenario.basis, small_scenario.solver_config
        cfg = replace(small_scenario.learn_config, max_outer_iterations=budget)
        weights, trace = run_mairl(small_scenario.make_game, basis, demos,
                                   [1.25 * w for w in true_w], cfg, mode=mode,
                                   solver_config=solver)
        assert trace.converged == (budget == 60)
        # One solve per game per sweep: the joint game, or each reduced game.
        sweeps, games = trace.records[-1].iteration, 1 if mode == "joint" else 2
        assert len(starts) == games * sweeps
        if trace.converged:
            assert trace.returned_sweep == sweeps

        # Solve the returned weights' games again from the starts their
        # sweep's solves had, and measure every agent's residual again.
        sweep = trace.returned_sweep
        starts = starts[games * (sweep - 1):games * sweep]
        played = small_scenario.make_game(weights)
        if mode == "joint":
            moments = rollout_moments(played, solve_ece(played, starts[0], solver).policies)
            model = [expected_feature_sums(f, moments) for f in basis.agents]
        else:
            replay = [np.mean(a, axis=0) for a in demos.actions]
            model = []
            for i in range(2):
                reduced = pin_other_agents(played, i, replay)
                policies = solve_ece(reduced, starts[i], solver).policies
                model.append(estimate_feature_expectation(
                    reduced, irl.reduced_features(basis.agents[i]), policies))
        records = [r for r in trace.records if r.iteration == sweep]
        demo_means = empirical_feature_mean(basis, demos)
        for i, rec in enumerate(records):
            assert np.array_equal(rec.weights, weights[i])
            gap = demo_means[i] - model[i]
            rel = gap / (np.abs(demo_means[i]) + 1e-8)
            assert np.array_equal(rec.gap, gap)
            assert rec.residual == float(np.sqrt(np.mean(rel * rel)))
