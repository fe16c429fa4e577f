"""File formats: trajectory CSV, policy JSON, weights JSON, trace CSVs.

Trajectory files are flat CSV with header
``trial,t,s_1..s_n,a1_1..a1_m1,...,aN_1..aN_mN``, one row per (trial, time
step), rows sorted by (trial, t) with t = 1..T per trial.  One formatter,
:func:`write_csv`, writes every CSV file deterministically byte for byte,
numbers with 17 significant digits so every value round-trips exactly.

:func:`read_trajectories` parses a file with numpy, in fixed-size row chunks,
when it starts with the exact header line, ends with a newline, and its rows,
with no blank line among them, hold integer ``trial`` and ``t`` columns and
finite values, t = 1..T in every trial, strictly increasing trial ids and one
horizon.  Any other file, and any file the array parse fails on, goes to the
line-by-line validating reader, which accepts the same files as before and is
the only source of :class:`IngestError` messages.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from array import array
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import _coerce
from .errors import ConfigError, IngestError
from .game import AffineGaussianPolicySet, Array, TrajectoryBatch


def write_csv(path: str | Path, header: Sequence[str], blocks: Iterable[Sequence]) -> None:
    """Write a header and blocks of rows with LF line ends, each block with one ``%``
    on a row template built from its first row: ``%.17g`` for numbers (ints and
    bools too), ``%s`` for text, which must hold no comma, quote or line break."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            if len(block):
                row = ",".join("%s" if isinstance(x, str) else "%.17g" for x in block[0])
                fh.write((row + "\n") * len(block) % tuple(chain.from_iterable(block)))


def _write_json(path: str | Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True))
        fh.write("\n")


def _open(path: str | Path, errors: str = "strict"):
    try:
        return open(path, "r", encoding="utf-8", newline="", errors=errors)
    except OSError as exc:
        raise IngestError(f"{path}: cannot read ({exc.strerror or exc})") from exc


def trajectory_header(state_dim: int, action_dims: Sequence[int]) -> list[str]:
    cols = ["trial", "t"]
    cols += [f"s_{k + 1}" for k in range(state_dim)]
    for i, m in enumerate(action_dims):
        cols += [f"a{i + 1}_{k + 1}" for k in range(m)]
    return cols


def write_trajectories(path: str | Path, batch: TrajectoryBatch) -> None:
    """Write ``batch`` as a trajectory CSV, ``_WRITE_TRIALS`` trials per block;
    each block's rows are built from its slice of the batch alone."""
    K, T = len(batch), batch.horizon
    steps = np.tile(np.arange(1, T + 1), _WRITE_TRIALS)

    def block(lo: int) -> list:
        trials = range(lo, min(lo + _WRITE_TRIALS, K))
        rows = len(trials) * T
        return np.column_stack(
            [np.repeat(trials, T), steps[:rows], batch.states[lo : trials.stop].reshape(rows, -1),
             *(a[lo : trials.stop].reshape(rows, -1) for a in batch.actions)]
        ).tolist()

    write_csv(path, trajectory_header(batch.state_dim, batch.action_dims),
              map(block, range(0, K, _WRITE_TRIALS)))


_WRITE_TRIALS = 64  # trials per block of write_trajectories
_CHUNK_ROWS = 4096  # rows per np.loadtxt call of the array reader
_BLOCK_BYTES = 1 << 20  # bytes per read of its line-counting pass


def read_trajectories(
    path: str | Path, state_dim: int, action_dims: Sequence[int]
) -> TrajectoryBatch:
    """Parse and validate a trajectory file against the expected dimensions.

    Raises :class:`IngestError` citing the 1-based file line of the first
    problem: wrong column count, malformed numbers, bytes that are not UTF-8,
    unsorted rows or non-finite values; once every row has passed, the first
    trial whose time steps do not span 1..T or whose horizon differs from the
    first's.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. loadtxt skipping a blank line
            batch = _read_arrays(path, state_dim, action_dims)
    except Exception:  # whatever the array parse trips on, the validating
        batch = None  # reader decides what is wrong with the file
    return batch if batch is not None else _read_by_line(path, state_dim, action_dims)


def _count_data_lines(path: str | Path, header: bytes) -> int:
    """The lines after ``header`` in ``path``; 0 unless the file starts with
    ``header`` and ends with a newline."""
    lines = 0
    with open(path, "rb") as fh:
        if fh.read(len(header)) != header:
            return 0
        last = b"\n"
        while block := fh.read(_BLOCK_BYTES):
            lines += block.count(b"\n")
            last = block[-1:]
    return lines if last == b"\n" else 0


def _read_arrays(
    path: str | Path, state_dim: int, action_dims: Sequence[int]
) -> TrajectoryBatch | None:
    """The batch in ``path`` parsed with numpy straight into its final arrays,
    or None if the file is not laid out as :func:`write_trajectories` lays it out."""
    header = trajectory_header(state_dim, action_dims)
    rows = _count_data_lines(path, (",".join(header) + "\n").encode())
    if rows == 0:
        return None
    width = len(header) - 2
    dtype = np.dtype([("trial", np.int64), ("t", np.int64), ("v", float, (width,))])
    trial = np.empty(rows, dtype=np.int64)
    t = np.empty(rows, dtype=np.int64)
    bounds = np.cumsum([0, state_dim, *action_dims])
    blocks = [np.empty((rows, hi - lo)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        fh.readline()
        for start in range(0, rows, _CHUNK_ROWS):
            size = min(_CHUNK_ROWS, rows - start)
            chunk = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                               max_rows=size, ndmin=1)
            # loadtxt skips blank lines, so a short chunk means the line count is off.
            if len(chunk) != size:
                return None
            stop = start + size
            trial[start:stop] = chunk["trial"]
            t[start:stop] = chunk["t"]
            for block, lo, hi in zip(blocks, bounds[:-1], bounds[1:]):
                block[start:stop] = chunk["v"][:, lo:hi]
    others = np.flatnonzero(trial != trial[0])
    horizon = int(others[0]) if others.size else rows
    trials = trial.reshape(-1, horizon)  # ValueError unless horizon divides rows
    if not (
        (t.reshape(-1, horizon) == np.arange(1, horizon + 1)).all()
        and (trials == trials[:, :1]).all()
        and (trials[1:, 0] > trials[:-1, 0]).all()
    ):
        return None
    states, *actions = (b.reshape(len(trials), horizon, b.shape[1]) for b in blocks)
    return TrajectoryBatch(states=states, actions=tuple(actions))  # ValueError if not finite


def _not_utf8(cells: Sequence[str]) -> bool:
    """Whether ``cells`` hold bytes that were not UTF-8, decoded as lone surrogates."""
    try:
        "".join(cells).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _csv_rows(fh, path: str | Path):
    """The rows of ``fh``; a csv.Error, such as a cell over the csv module's
    field size limit, becomes an IngestError naming the line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_by_line(
    path: str | Path, state_dim: int, action_dims: Sequence[int]
) -> TrajectoryBatch:
    """The validating reader behind :func:`read_trajectories`: checks the file
    row by row and raises its :class:`IngestError`."""
    expected_header = trajectory_header(state_dim, action_dims)
    n_cols = len(expected_header)
    values = array("d")  # the value columns of every row, row after row
    trials: list[list[int]] = []  # [trial, first t, last t, rows] in file order
    with _open(path, errors="surrogateescape") as fh:
        reader = _csv_rows(fh, path)
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
                reason = "not valid UTF-8" if _not_utf8(row) else exc
                raise IngestError(f"{path}: line {line_no}: {reason}") from None
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
    # The list depth of each field: agent (but not in nominal_states), time step, row, entry.
    depths = {"gains": 4, "offsets": 3, "covariances": 4, "nominal_states": 2, "nominal_actions": 3}
    try:
        with _open(path) as fh:
            doc = json.load(fh)
        return AffineGaussianPolicySet(
            **{key: _coerce(doc[key], float, key, depth=d) for key, d in depths.items()}
        )
    except (ConfigError, KeyError, TypeError, ValueError, RecursionError) as exc:
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
        return [np.asarray(w) for w in _coerce(doc["weights"], float, "weights", depth=2)]
    except (ConfigError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise IngestError(f"{path}: invalid weights file ({exc})") from exc


def write_iteration_trace(path: str | Path, trace, num_agents: int) -> None:
    header = ["iteration", "max_deviation", "step_size"]
    header += [f"cost_agent{i}" for i in range(num_agents)]
    rows = [
        [rec.iteration, rec.max_deviation, rec.step_size, *rec.agent_costs]
        for rec in trace.records
    ]
    write_csv(path, header, [rows])


def write_learn_trace(path: str | Path, trace) -> None:
    header = ["iteration", "agent", "residual", "solver_iterations", "effort_floored",
              "feature", "weight", "gap", "cold_fallback"]
    rows = [
        [rec.iteration, rec.agent, rec.residual, rec.solver_iterations, rec.effort_floored,
         k, rec.weights[k], rec.gap[k], rec.cold_fallback]
        for rec in trace.records
        for k in range(rec.weights.shape[0])
    ]
    write_csv(path, header, [rows])


def write_kl_table(path: str | Path, kls: Sequence[Array], feature_names) -> None:
    rows = [
        [i, name, value]
        for i, vec in enumerate(kls)
        for name, value in zip(feature_names[i], vec)
    ]
    write_csv(path, ["agent", "feature", "kl"], [rows])


def write_goal_stats(path: str | Path, stats) -> None:
    rows = [[i, mean, std] for i, (mean, std) in enumerate(stats)]
    write_csv(path, ["agent", "mean_dist", "std_dist"], [rows])


def write_rmse(path: str | Path, rmse: Array) -> None:
    write_csv(path, ["t", "rmse"], [[[k + 1, value] for k, value in enumerate(rmse)]])
