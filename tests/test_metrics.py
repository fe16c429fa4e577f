"""Distribution divergences, goal statistics, RMSE."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ecegames import Trajectory
from ecegames.features import ControlEffort, FeatureBasis
from ecegames.metrics import (
    goal_distance_stats,
    histogram_kl,
    kl_divergence_per_feature,
    trajectory_rmse,
)

from conftest import stack_trajectories


def batch_from_positions(positions_list):
    """One-agent planar batch; state = position, single scalar action."""
    trajs = []
    for pos in positions_list:
        pos = np.asarray(pos, dtype=float)
        trajs.append(Trajectory(states=pos, actions=(np.zeros((pos.shape[0], 1)),)))
    return stack_trajectories(trajs)


def effort_basis():
    return FeatureBasis(agents=((ControlEffort(agent=0),),))


def effort_batch(effort_values, horizon=4):
    """Batch whose single feature (effort sum) takes the prescribed values."""
    trajs = []
    for v in effort_values:
        a = np.zeros((horizon, 1))
        a[0, 0] = np.sqrt(v)
        trajs.append(Trajectory(states=np.zeros((horizon, 2)), actions=(a,)))
    return stack_trajectories(trajs)


class TestHistogramKl:
    def test_hand_example_two_bins(self):
        kl = histogram_kl(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert kl == pytest.approx(0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0), abs=1e-12)

    def test_identical_histograms_zero(self):
        p = np.array([3.0, 1.0, 6.0])
        assert histogram_kl(p, p.copy(), smoothing=1e-3) == 0.0

    @given(
        p=hnp.arrays(np.float64, 8, elements=st.floats(0.0, 100.0)),
        q=hnp.arrays(np.float64, 8, elements=st.floats(0.0, 100.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_non_negative(self, p, q):
        kl = histogram_kl(p, q, smoothing=1e-3)
        assert kl >= -1e-12


class TestKlPerFeature:
    def test_identical_batches_give_exact_zero(self):
        batch = effort_batch([1.0, 2.0, 3.0, 4.0])
        kls = kl_divergence_per_feature(batch, batch, effort_basis())
        assert kls[0][0] == 0.0

    def test_degenerate_range_is_zero(self):
        batch = effort_batch([2.0, 2.0, 2.0])
        kls = kl_divergence_per_feature(batch, batch, effort_basis())
        assert kls[0][0] == 0.0

    def test_same_gaussian_large_samples_small_kl(self):
        rng = np.random.default_rng(0)
        a = effort_batch(np.abs(rng.normal(10.0, 1.0, size=5000)))
        b = effort_batch(np.abs(rng.normal(10.0, 1.0, size=5000)))
        kls = kl_divergence_per_feature(a, b, effort_basis())
        assert kls[0][0] < 0.02

    def test_monotone_in_mean_shift(self):
        votes = 0
        for run in range(3):
            rng = np.random.default_rng(100 + run)
            base = rng.normal(10.0, 1.0, size=5000)
            ref = effort_batch(np.abs(base))
            kls = []
            for delta in (0.0, 0.5, 1.0, 2.0):
                shifted = effort_batch(np.abs(rng.normal(10.0 + delta, 1.0, size=5000)))
                kls.append(kl_divergence_per_feature(ref, shifted, effort_basis())[0][0])
            votes += all(kls[i] <= kls[i + 1] + 1e-9 for i in range(3))
        assert votes >= 2


class TestGoalStats:
    def test_exact_goal_reach(self):
        batch = batch_from_positions([np.zeros((3, 2)), np.zeros((3, 2))])
        stats = goal_distance_stats(batch, [np.zeros(2)], [np.array([0, 1])])
        assert stats[0] == (0.0, 0.0)

    def test_two_point_statistics(self):
        a = np.zeros((2, 2)); a[-1] = [1.0, 0.0]
        b = np.zeros((2, 2)); b[-1] = [3.0, 0.0]
        batch = batch_from_positions([a, b])
        mean, std = goal_distance_stats(batch, [np.zeros(2)], [np.array([0, 1])])[0]
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(np.sqrt(2.0))


class TestRmse:
    def test_self_comparison_is_zero(self):
        ref = np.random.default_rng(1).normal(size=(6, 2))
        batch = batch_from_positions([ref.copy(), ref.copy()])
        rmse = trajectory_rmse(ref, batch, [np.array([0, 1])])
        assert np.all(rmse == 0.0)

    def test_constant_offset_is_pythagorean(self):
        ref = np.zeros((5, 2))
        off = np.tile([3.0, 4.0], (5, 1))
        batch = batch_from_positions([off])
        rmse = trajectory_rmse(ref, batch, [np.array([0, 1])])
        assert np.allclose(rmse, 5.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        ref = rng.normal(size=(5, 2))
        rolls = [rng.normal(size=(5, 2)) for _ in range(3)]
        shift = np.array([10.0, -7.0])
        base = trajectory_rmse(ref, batch_from_positions(rolls), [np.array([0, 1])])
        moved = trajectory_rmse(
            ref + shift, batch_from_positions([r + shift for r in rolls]), [np.array([0, 1])]
        )
        assert np.allclose(base, moved)
        assert np.all(base >= 0.0)
