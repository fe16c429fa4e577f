"""Trial-stacked rollout sets against per-trajectory references.

A :class:`TrajectoryBatch` holds its K rollouts as (K, T, .) arrays, and every
consumer of a rollout set (feature sums and means, the Monte-Carlo feature
expectation, goal statistics, RMSE, the trajectory CSV writer and reader)
works on the whole stack at once.  The references in ``oracles.py`` keep the
per-trajectory loops; the stacked code must match them bit for bit, as must
the one-call ``linearize`` against its per-step reference.
"""

import json

import numpy as np
import pytest

from ecegames import (
    GameSpec,
    IngestError,
    InitialState,
    LinearizationError,
    NoiseModel,
    Trajectory,
    TrajectoryBatch,
    dynamics,
    eval_features,
    linearize,
    pin_other_agents,
    quadratic_cost,
    rollout_batch,
    simulate_mean,
    simulate_stochastic,
    solve_ece,
    trajio,
)
from ecegames.config import parse_scenario
from ecegames.features import ControlEffort, FeatureBasis
from ecegames.irl import _mean_demo_actions, empirical_feature_mean, estimate_feature_expectation
from ecegames.metrics import goal_distance_stats, trajectory_rmse

from conftest import stack_trajectories
from oracles import (
    feature_sums_per_trajectory,
    goal_distance_stats_per_trajectory,
    linearize_per_step,
    mean_feature_sums,
    trajectory_rmse_per_trajectory,
    write_trajectories_by_cell,
)

TRIALS = 25
SEED = 40


def load(config_dir, name):
    """A shipped scenario; ``<name>_unicycle`` drives its agents as unicycles."""
    doc = json.loads((config_dir / f"{name.removesuffix('_unicycle')}.json").read_text())
    if name.endswith("_unicycle"):
        doc["dynamics"] = {"kind": "unicycle"}
    return parse_scenario(doc)


@pytest.fixture(
    scope="module", params=["two_agent_crossing", "three_agent_ring", "lq_tracking_unicycle"]
)
def rollouts(request, config_dir):
    """A scenario, its game, the solved policies and a sampled batch."""
    scenario = load(config_dir, request.param)
    game = scenario.make_game(scenario.true_weights())
    policies = solve_ece(game, config=scenario.solver_config).policies
    return scenario, game, policies, rollout_batch(game, policies, TRIALS, SEED)


def assert_lists_equal(stacked, reference):
    assert len(stacked) == len(reference)
    for a, b in zip(stacked, reference):
        assert a.shape == b.shape and np.array_equal(a, b)


class TestBatchLayout:
    def test_stacked_arrays_hold_the_sampled_trials(self, rollouts):
        _, game, policies, batch = rollouts
        assert batch.states.shape == (TRIALS, game.horizon, game.state_dim)
        assert [a.shape for a in batch.actions] == [
            (TRIALS, game.horizon, m) for m in game.action_dims
        ]
        assert (len(batch), batch.horizon, batch.action_dims) == (
            TRIALS, game.horizon, game.action_dims
        )
        for k in (0, TRIALS - 1):
            traj = simulate_stochastic(game, policies, seed=SEED + k)
            assert isinstance(batch[k], Trajectory)
            assert np.array_equal(batch[k].states, traj.states)
            assert_lists_equal(batch[k].actions, traj.actions)

    def test_from_trajectories_round_trip(self, rollouts):
        # The trials a batch iterates over stack back into the batch.
        batch = rollouts[3]
        again = stack_trajectories(batch)
        assert np.array_equal(again.states, batch.states)
        assert_lists_equal(again.actions, batch.actions)

    def test_invalid_batches_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            TrajectoryBatch(states=np.zeros((0, 3, 2)), actions=(np.zeros((0, 3, 1)),))
        with pytest.raises(ValueError, match=r"\(K, T, m_i\)"):
            TrajectoryBatch(states=np.zeros((2, 3, 2)), actions=(np.zeros((2, 4, 1)),))
        with pytest.raises(ValueError, match=r"\(K, T, n\)"):
            TrajectoryBatch(states=np.zeros((3, 2)), actions=(np.zeros((3, 1)),))
        states = np.zeros((2, 3, 2))
        states[1, 2, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite states"):
            TrajectoryBatch(states=states, actions=(np.zeros((2, 3, 1)),))


class TestMatchesPerTrajectoryLoops:
    def test_feature_sums(self, rollouts):
        scenario, _, _, batch = rollouts
        sums = eval_features(scenario.basis, batch)
        assert_lists_equal(sums, feature_sums_per_trajectory(scenario.basis, batch))
        # The one-trajectory call is the one-row case.
        assert_lists_equal(eval_features(scenario.basis, batch[3]), [s[3] for s in sums])

    def test_empirical_feature_mean(self, rollouts):
        scenario, _, _, batch = rollouts
        assert_lists_equal(
            empirical_feature_mean(scenario.basis, batch), mean_feature_sums(scenario.basis, batch)
        )

    def test_single_feature_mean_adds_in_trial_order(self, rollouts):
        scenario, _, _, batch = rollouts
        basis = FeatureBasis(
            agents=tuple((ControlEffort(agent=i),) for i in range(batch.num_agents)),
            position_indices=scenario.basis.position_indices,
        )
        assert_lists_equal(empirical_feature_mean(basis, batch), mean_feature_sums(basis, batch))

    def test_goal_distance_stats(self, rollouts):
        scenario, _, _, batch = rollouts
        args = (scenario.goals, scenario.position_indices)
        assert goal_distance_stats(batch, *args) == goal_distance_stats_per_trajectory(
            batch, *args
        )

    # The last case is a one-step batch of final states: one column per
    # (trial, agent) row, the layout in which np.sum(axis=0) adds pairwise.
    @pytest.mark.parametrize("steps", [slice(None), slice(-1, None)])
    def test_trajectory_rmse_against_demo_mean(self, rollouts, steps):
        scenario, game, policies, batch = rollouts
        demo_mean = np.mean(batch.states, axis=0)
        assert np.array_equal(demo_mean, np.mean([traj.states for traj in batch], axis=0))
        model = rollout_batch(game, policies, 40, SEED + 1000)
        model = TrajectoryBatch(
            states=model.states[:, steps], actions=tuple(a[:, steps] for a in model.actions)
        )
        ref, pos = demo_mean[steps], scenario.position_indices
        rmse = trajectory_rmse(ref, model, pos)
        assert rmse.shape == (model.horizon,)
        assert np.array_equal(rmse, trajectory_rmse_per_trajectory(ref, model, pos, model.horizon))

    def test_mean_demo_actions(self, rollouts):
        batch = rollouts[3]
        reference = [
            np.mean([traj.actions[j] for traj in batch], axis=0) for j in range(batch.num_agents)
        ]
        assert_lists_equal(_mean_demo_actions(batch), reference)


class TestFeatureExpectation:
    def test_joint_mode_matches_per_trial_rollouts(self, rollouts):
        scenario, game, policies, _ = rollouts
        means, solved, _ = estimate_feature_expectation(
            game, scenario.basis, 12, SEED, solver_config=scenario.solver_config,
            warm_start=policies,
        )
        samples = [simulate_stochastic(game, solved, seed=SEED + j) for j in range(12)]
        assert_lists_equal(means, mean_feature_sums(scenario.basis, samples))

    def test_independent_mode_embeds_the_batch(self, rollouts):
        scenario, game, _, batch = rollouts
        agent = game.num_agents - 1
        reduced, embed = pin_other_agents(game, agent, _mean_demo_actions(batch))
        means, solved, _ = estimate_feature_expectation(
            reduced, scenario.basis, 12, SEED, solver_config=scenario.solver_config, embed=embed
        )
        samples = [embed(simulate_stochastic(reduced, solved, seed=SEED + j)) for j in range(12)]
        assert_lists_equal(means, mean_feature_sums(scenario.basis, samples))
        embedded = embed(rollout_batch(reduced, solved, 12, SEED))
        assert isinstance(embedded, TrajectoryBatch)
        assert np.array_equal(embedded.states, np.stack([t.states for t in samples]))
        for j in range(game.num_agents):
            assert np.array_equal(embedded.actions[j], np.stack([t.actions[j] for t in samples]))


class TestTrajectoryFile:
    def test_write_read_round_trip(self, rollouts, tmp_path):
        scenario, game, _, batch = rollouts
        path = tmp_path / "demos.csv"
        trajio.write_trajectories(path, batch)
        loaded = trajio.read_trajectories(path, game.state_dim, game.action_dims)
        assert np.array_equal(loaded.states, batch.states)
        assert_lists_equal(loaded.actions, batch.actions)
        assert loaded.states.flags.c_contiguous
        assert all(a.flags.c_contiguous for a in loaded.actions)
        assert_lists_equal(
            eval_features(scenario.basis, loaded), feature_sums_per_trajectory(scenario.basis, batch)
        )
        again = tmp_path / "again.csv"
        trajio.write_trajectories(again, loaded)
        assert again.read_bytes() == path.read_bytes()
        by_cell = tmp_path / "by_cell.csv"
        write_trajectories_by_cell(by_cell, batch)
        assert by_cell.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "dropped, message",
        [
            (1, "trial 0: time steps must span 1..T"),
            (4, "trial 1: time steps must span 1..T"),
            (11, "trial 2: inconsistent horizon"),
        ],
    )
    def test_trial_checks_follow_the_row_checks(self, tmp_path, dropped, message):
        states = np.arange(24.0).reshape(3, 4, 2)
        batch = TrajectoryBatch(states=states, actions=(np.ones((3, 4, 1)),))
        path = tmp_path / "t.csv"
        trajio.write_trajectories(path, batch)
        header, *rows = path.read_text().splitlines()
        del rows[dropped]  # row 4k + t - 1 holds step t of trial k
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(IngestError, match=message):
            trajio.read_trajectories(path, 2, (1,))
        # A malformed row anywhere in the file is reported first.
        rows[-1] = rows[-1].replace(",", ";", 1)
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(IngestError, match=f"line {len(rows) + 1}:"):
            trajio.read_trajectories(path, 2, (1,))


class TestStackedLinearize:
    def test_matches_per_step_calls(self, rollouts):
        _, game, policies, batch = rollouts
        nominal = simulate_mean(game, policies)
        pinned, _ = pin_other_agents(game, 0, _mean_demo_actions(batch))
        for g, nom in ((game, nominal), (pinned, Trajectory(nominal.states, nominal.actions[:1]))):
            A, B = linearize(g, nom)
            A_ref, B_ref = linearize_per_step(g, nom)
            assert np.array_equal(A, A_ref)
            assert_lists_equal(B, B_ref)

    def test_non_finite_jacobian_names_earliest_step(self):
        model = dynamics.unicycle(1, 0.1)

        def jacobians(t, s, actions):
            A, Bs = model.jacobians(t, s, actions)
            Bs[0] = np.where(np.isin(t, [3, 5])[..., None, None], np.nan, Bs[0])
            return A, Bs

        game = GameSpec(
            dynamics=dynamics.DynamicsModel(3, (2,), model.step, jacobians),
            costs=(quadratic_cost(np.eye(3), np.zeros(3), [np.eye(2)]),),
            horizon=6,
            noise=NoiseModel.none(3),
            initial_state=InitialState(mean=np.zeros(3)),
        )
        nominal = Trajectory(states=np.zeros((6, 3)), actions=(np.ones((6, 2)),))
        with pytest.raises(LinearizationError) as err:
            linearize(game, nominal)
        assert err.value.time_step == 3

