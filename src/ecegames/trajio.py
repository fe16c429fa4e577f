"""File formats: trajectory CSV, policy JSON, weights JSON, trace CSVs.

Trajectory files are flat CSV with header
``trial,t,s_1..s_n,a1_1..a1_m1,...,aN_1..aN_mN``, one row per (trial, time
step), rows sorted by (trial, t) with t = 1..T per trial.  Floats are
written with 17 significant digits so every value round-trips exactly; all
writers are deterministic byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import IngestError
from .game import AffineGaussianPolicySet, Array, TrajectoryBatch


def _cell(x) -> str:
    return x if isinstance(x, str) else format(float(x), ".17g")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows deterministically: LF line ends, numbers to 17 digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(x) for x in row] for row in rows)


def _write_json(path: str | Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _open(path: str | Path):
    try:
        return open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise IngestError(f"{path}: cannot read ({exc.strerror or exc})") from exc


def trajectory_header(state_dim: int, action_dims: Sequence[int]) -> list[str]:
    cols = ["trial", "t"]
    cols += [f"s_{k + 1}" for k in range(state_dim)]
    for i, m in enumerate(action_dims):
        cols += [f"a{i + 1}_{k + 1}" for k in range(m)]
    return cols


def write_trajectories(path: str | Path, batch: TrajectoryBatch) -> None:
    steps = np.arange(1, batch.horizon + 1)

    def rows():
        for trial in range(len(batch)):
            yield from np.column_stack(
                [np.full(batch.horizon, trial), steps, batch.states[trial],
                 *(a[trial] for a in batch.actions)]
            ).tolist()

    write_csv(path, trajectory_header(batch.state_dim, batch.action_dims), rows())


def read_trajectories(
    path: str | Path, state_dim: int, action_dims: Sequence[int]
) -> TrajectoryBatch:
    """Parse and validate a trajectory file against the expected dimensions.

    Raises :class:`IngestError` citing the 1-based file line of the first
    problem: wrong column count, malformed numbers, unsorted rows or
    non-finite values; once every row has passed, the first trial whose
    time steps do not span 1..T or whose horizon differs from the first's.
    """
    expected_header = trajectory_header(state_dim, action_dims)
    n_cols = len(expected_header)
    values = array("d")  # the value columns of every row, row after row
    trials: list[list[int]] = []  # [trial, first t, last t, rows] in file order
    with _open(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None
        if header != expected_header:
            raise IngestError(
                f"{path}: line 1: header mismatch, expected {','.join(expected_header)}"
            )
        prev_key: tuple[int, int] | None = None
        for line_no, row in enumerate(reader, start=2):
            if len(row) != n_cols:
                raise IngestError(
                    f"{path}: line {line_no}: expected {n_cols} columns, got {len(row)}"
                )
            try:
                trial = int(row[0])
                t = int(row[1])
                row_values = [float(x) for x in row[2:]]
            except ValueError as exc:
                raise IngestError(f"{path}: line {line_no}: {exc}") from None
            if not all(map(math.isfinite, row_values)):
                raise IngestError(f"{path}: line {line_no}: non-finite value")
            key = (trial, t)
            if prev_key is not None and key <= prev_key:
                raise IngestError(
                    f"{path}: line {line_no}: rows not sorted by (trial, t)"
                )
            if prev_key is None or trial != prev_key[0]:
                trials.append([trial, t, t, 0])
            trials[-1][2] = t
            trials[-1][3] += 1
            prev_key = key
            values.extend(row_values)
    if not trials:
        raise IngestError(f"{path}: no data rows")

    horizon = trials[0][3]
    for trial, first, last, rows in trials:
        # t rises strictly within a trial, so it spans 1..rows iff it runs from 1 to rows.
        if (first, last) != (1, rows):
            raise IngestError(f"{path}: trial {trial}: time steps must span 1..T")
        if rows != horizon:
            raise IngestError(f"{path}: trial {trial}: inconsistent horizon")
    data = np.frombuffer(values, dtype=float).reshape(len(trials), horizon, n_cols - 2)
    states, *actions = np.split(data, np.cumsum([state_dim, *action_dims])[:-1], axis=2)
    return TrajectoryBatch(
        states=np.ascontiguousarray(states),
        actions=tuple(np.ascontiguousarray(a) for a in actions),
    )


def write_policy(path: str | Path, policies: AffineGaussianPolicySet) -> None:
    """Serialize a policy set (gains, offsets, covariances, nominal) as JSON."""
    doc = {
        "num_agents": policies.num_agents,
        "horizon": policies.horizon,
        "state_dim": policies.state_dim,
        "action_dims": list(policies.action_dims),
        "nominal_states": policies.nominal_states.tolist(),
        "nominal_actions": [a.tolist() for a in policies.nominal_actions],
        "gains": [P.tolist() for P in policies.gains],
        "offsets": [a.tolist() for a in policies.offsets],
        "covariances": [S.tolist() for S in policies.covariances],
    }
    _write_json(path, doc)


def read_policy(path: str | Path) -> AffineGaussianPolicySet:
    try:
        with _open(path) as fh:
            doc = json.load(fh)
        return AffineGaussianPolicySet(
            gains=tuple(np.asarray(P) for P in doc["gains"]),
            offsets=tuple(np.asarray(a) for a in doc["offsets"]),
            covariances=tuple(np.asarray(S) for S in doc["covariances"]),
            nominal_states=np.asarray(doc["nominal_states"]),
            nominal_actions=tuple(np.asarray(a) for a in doc["nominal_actions"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"{path}: invalid policy file ({exc})") from exc


def write_weights(path: str | Path, weights: Sequence[Array], feature_names) -> None:
    doc = {
        "weights": [np.asarray(w).tolist() for w in weights],
        "feature_names": [list(names) for names in feature_names],
    }
    _write_json(path, doc)


def read_weights(path: str | Path) -> list[Array]:
    try:
        with _open(path) as fh:
            doc = json.load(fh)
        return [np.asarray(w, dtype=float) for w in doc["weights"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"{path}: invalid weights file ({exc})") from exc


def write_iteration_trace(path: str | Path, trace, num_agents: int) -> None:
    header = ["iteration", "max_deviation", "step_size"]
    header += [f"cost_agent{i}" for i in range(num_agents)]
    rows = (
        [rec.iteration, rec.max_deviation, rec.step_size, *rec.agent_costs]
        for rec in trace.records
    )
    write_csv(path, header, rows)


def write_learn_trace(path: str | Path, trace) -> None:
    header = ["iteration", "agent", "residual", "solver_iterations", "effort_floored",
              "feature", "weight", "gap"]
    rows = (
        [rec.iteration, rec.agent, rec.residual, rec.solver_iterations, rec.effort_floored,
         k, rec.weights[k], rec.gap[k]]
        for rec in trace.records
        for k in range(rec.weights.shape[0])
    )
    write_csv(path, header, rows)


def write_kl_table(path: str | Path, kls: Sequence[Array], feature_names) -> None:
    rows = (
        [i, name, value]
        for i, vec in enumerate(kls)
        for name, value in zip(feature_names[i], vec)
    )
    write_csv(path, ["agent", "feature", "kl"], rows)


def write_goal_stats(path: str | Path, stats) -> None:
    rows = ([i, mean, std] for i, (mean, std) in enumerate(stats))
    write_csv(path, ["agent", "mean_dist", "std_dist"], rows)


def write_rmse(path: str | Path, rmse: Array) -> None:
    write_csv(path, ["t", "rmse"], ([k + 1, value] for k, value in enumerate(rmse)))
