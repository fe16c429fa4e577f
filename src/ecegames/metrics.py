"""Experiment metrics: feature-distribution KL, goal distances, RMSE, task stats.

All metrics are pure functions of their inputs.  The KL estimator histograms
per-trajectory feature sums on bins shared between the two samples (pooled
range) with additive smoothing, so the divergence is always finite and
non-negative; with identical batches it is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .features import FeatureBasis, eval_features
from .game import Array, Trajectory, TrajectoryBatch


@dataclass(frozen=True)
class HistogramSpec:
    """Shared-range histogram estimator settings for distribution divergences."""

    bins: int = 20
    smoothing: float = 1e-3

    def __post_init__(self):
        if self.bins < 2:
            raise ValueError("need at least two histogram bins")
        if self.smoothing <= 0.0:
            raise ValueError("smoothing mass must be positive")


def histogram_kl(p_counts: Array, q_counts: Array, smoothing: float = 0.0) -> float:
    """KL(p || q) in nats between two histograms given as bin masses/counts."""
    p = np.asarray(p_counts, dtype=float) + smoothing
    q = np.asarray(q_counts, dtype=float) + smoothing
    p = p / p.sum()
    q = q / q.sum()
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def _sample_kl(x: Array, y: Array, spec: HistogramSpec) -> float:
    lo = min(float(np.min(x)), float(np.min(y)))
    hi = max(float(np.max(x)), float(np.max(y)))
    if hi <= lo:
        # Degenerate range: both samples concentrated on one value.
        return 0.0
    edges = np.linspace(lo, hi, spec.bins + 1)
    px, _ = np.histogram(x, bins=edges)
    qy, _ = np.histogram(y, bins=edges)
    return histogram_kl(px, qy, smoothing=spec.smoothing)


def kl_divergence_per_feature(
    demo: TrajectoryBatch,
    model: TrajectoryBatch,
    basis: FeatureBasis,
    spec: HistogramSpec | None = None,
) -> list[Array]:
    """KL(demo || model) of every agent's per-feature sum distribution."""
    spec = spec or HistogramSpec()
    return [
        np.array([_sample_kl(x[:, k], y[:, k], spec) for k in range(x.shape[1])])
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
    reference: Trajectory | Array,
    rollouts: TrajectoryBatch,
    position_indices: Sequence[Array],
    horizon_cut: int | None = None,
) -> Array:
    """Per-time-step RMSE of agent positions against a reference trajectory.

    At each step the squared position errors are averaged over rollouts and
    agents before taking the root.  ``reference`` may be a trajectory or a
    raw (T, n) state array (e.g. the per-step mean of a demo batch).
    """
    ref_states = reference.states if isinstance(reference, Trajectory) else np.asarray(reference)
    T = rollouts.horizon if horizon_cut is None else horizon_cut
    if T > rollouts.horizon or T > ref_states.shape[0]:
        raise ValueError("horizon_cut exceeds available trajectory length")
    count = len(rollouts) * len(position_indices)
    sq = np.empty((len(rollouts), len(position_indices), T))
    for i, idx in enumerate(position_indices):
        idx = np.asarray(idx, dtype=int)
        err = rollouts.states[:, :T, idx] - ref_states[:T, idx]
        sq[:, i] = np.sum(err * err, axis=-1)
    # Added up trial by trial, agents in order within a trial: cumsum adds the
    # rows in that order even where np.sum(axis=0) would add them pairwise.
    total = np.cumsum(sq.reshape(count, T), axis=0)[-1]
    return np.sqrt(total / count)


@dataclass(frozen=True)
class TaskStatsSpec:
    """Names state components for scalar task summaries.

    ``speeds`` maps a label to the state indices of one agent's velocity
    components; ``distances`` maps a label to a pair of position index
    arrays whose Euclidean separation is averaged.
    """

    speeds: Mapping[str, Sequence[int]]
    distances: Mapping[str, tuple[Sequence[int], Sequence[int]]]


def task_statistics(batch: TrajectoryBatch, spec: TaskStatsSpec) -> dict[str, float]:
    """Averages over time and trajectories of named speeds and separations."""
    n = batch.state_dim
    out: dict[str, float] = {}
    for label, idx in spec.speeds.items():
        idx = np.asarray(idx, dtype=int)
        if idx.size == 0 or np.any(idx < 0) or np.any(idx >= n):
            raise ConfigError(f"speed indices for {label!r} out of range")
        speeds = np.linalg.norm(batch.states[:, :, idx], axis=-1)
        out[f"avg_speed_{label}"] = float(np.mean(np.mean(speeds, axis=1)))
    for label, (ia, ib) in spec.distances.items():
        ia = np.asarray(ia, dtype=int)
        ib = np.asarray(ib, dtype=int)
        if ia.shape != ib.shape or ia.size == 0 or np.any(ia < 0) or np.any(ia >= n) or np.any(
            ib < 0
        ) or np.any(ib >= n):
            raise ConfigError(f"distance indices for {label!r} invalid")
        dists = np.linalg.norm(batch.states[:, :, ia] - batch.states[:, :, ib], axis=-1)
        out[f"avg_dist_{label}"] = float(np.mean(np.mean(dists, axis=1)))
    return out
