"""Experiment metrics: feature-distribution KL, goal distances, RMSE.

All metrics are pure functions of their inputs.  The KL estimator histograms
per-trajectory feature sums on bins shared between the two samples (pooled
range) with additive smoothing, so the divergence is always finite and
non-negative; with identical batches it is exactly zero.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .features import FeatureBasis, eval_features
from .game import Array, TrajectoryBatch

BINS = 20  # equal-width bins over the pooled range of both samples
SMOOTHING = 1e-3  # mass added to every bin count


def histogram_kl(p_counts: Array, q_counts: Array, smoothing: float = 0.0) -> float:
    """KL(p || q) in nats between two histograms given as bin masses/counts."""
    p = np.asarray(p_counts, dtype=float) + smoothing
    q = np.asarray(q_counts, dtype=float) + smoothing
    p = p / p.sum()
    q = q / q.sum()
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def _sample_kl(x: Array, y: Array) -> float:
    lo = min(float(np.min(x)), float(np.min(y)))
    hi = max(float(np.max(x)), float(np.max(y)))
    if hi <= lo:
        # Degenerate range: both samples concentrated on one value.
        return 0.0
    edges = np.linspace(lo, hi, BINS + 1)
    px, _ = np.histogram(x, bins=edges)
    qy, _ = np.histogram(y, bins=edges)
    return histogram_kl(px, qy, smoothing=SMOOTHING)


def kl_divergence_per_feature(
    demo: TrajectoryBatch, model: TrajectoryBatch, basis: FeatureBasis
) -> list[Array]:
    """KL(demo || model) of every agent's per-feature sum distribution."""
    return [
        np.array([_sample_kl(x[:, k], y[:, k]) for k in range(x.shape[1])])
        for x, y in zip(eval_features(basis, demo), eval_features(basis, model))
    ]


def goal_distance_stats(
    batch: TrajectoryBatch,
    goals: Sequence[Array],
    position_indices: Sequence[Array],
) -> list[tuple[float, float]]:
    """Mean and sample standard deviation of each agent's final goal distance."""
    out = []
    for i, goal in enumerate(goals):
        idx = np.asarray(position_indices[i], dtype=int)
        goal = np.asarray(goal, dtype=float)
        d = batch.states[:, -1, idx] - goal
        # Row-for-row dot products, which round like np.linalg.norm of one row.
        dists = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
        std = float(np.std(dists, ddof=1)) if len(dists) > 1 else 0.0
        out.append((float(np.mean(dists)), std))
    return out


def trajectory_rmse(
    reference: Array, rollouts: TrajectoryBatch, position_indices: Sequence[Array]
) -> Array:
    """Per-time-step RMSE of agent positions against reference states.

    ``reference`` (T, n) holds a state per step of the rollouts (e.g. the
    per-step mean of a demo batch).  At each step the squared position
    errors are averaged over rollouts and agents before taking the root.
    """
    T, reference = rollouts.horizon, np.asarray(reference)
    count = len(rollouts) * len(position_indices)
    sq = np.empty((len(rollouts), len(position_indices), T))
    for i, idx in enumerate(position_indices):
        idx = np.asarray(idx, dtype=int)
        err = rollouts.states[..., idx] - reference[:, idx]
        sq[:, i] = np.sum(err * err, axis=-1)
    # Added up trial by trial, agents in order within a trial: cumsum adds the
    # rows in that order even where np.sum(axis=0) would add them pairwise.
    total = np.cumsum(sq.reshape(count, T), axis=0)[-1]
    return np.sqrt(total / count)
