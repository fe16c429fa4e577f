"""The array path of ``trajio.read_trajectories`` against the validating reader,
and ``trajio.write_trajectories`` and the table writers against the
cell-by-cell writer.

``read_trajectories`` parses a file with numpy and hands every file it cannot
vouch for to the line-by-line reader ``trajio._read_by_line``.  For each file
of an unusual or malformed corpus, both must give equal arrays or the same
``IngestError`` message.
"""

from __future__ import annotations

import numpy as np
import pytest

from ecegames import TrajectoryBatch, trajio
from ecegames.cli import main
from ecegames.errors import IngestError
from ecegames.ilq import IterationRecord, IterationTrace
from ecegames.irl import AgentUpdateRecord, LearnTrace
from oracles import write_csv_by_cell, write_trajectories_by_cell

STATE_DIM, ACTION_DIMS = 2, (1, 2)


def base_batch(trials=3, horizon=4):
    rng = np.random.default_rng(0)
    return TrajectoryBatch(
        states=rng.normal(size=(trials, horizon, STATE_DIM)),
        actions=tuple(rng.normal(size=(trials, horizon, m)) for m in ACTION_DIMS),
    )


def base_lines(tmp_path, batch=None):
    """Header and rows of a well-formed file: row 4k + t holds step t of trial k."""
    path = tmp_path / "base.csv"
    trajio.write_trajectories(path, base_batch() if batch is None else batch)
    return path.read_text().splitlines()


def replace_cell(lines, column, value, rows):
    out = list(lines)
    for r in rows:
        cells = out[r].split(",")
        cells[column] = value(cells[column]) if callable(value) else value
        out[r] = ",".join(cells)
    return out


def join(lines, end="\n"):
    return (end.join(lines) + end).encode()


TRIAL_1 = range(5, 9)  # the rows of trial 1 in the base file

# File name -> the bytes of that file, made from the lines of the base file.
VARIANTS = {
    "well_formed": join,
    "blank_line_mid": lambda lines: join(lines[:6] + [""] + lines[6:]),
    "blank_line_end": lambda lines: join(lines) + b"\n",
    "whitespace_line_mid": lambda lines: join(lines[:6] + ["   "] + lines[6:]),
    "whitespace_line_end": lambda lines: join(lines) + b"  \n",
    "comment_line": lambda lines: join(lines[:6] + ["# a comment"] + lines[6:]),
    "quoted_field": lambda lines: join(replace_cell(lines, 2, lambda c: f'"{c}"', [3])),
    "quoted_header": lambda lines: join(['"trial"' + lines[0][5:]] + lines[1:]),
    "crlf": lambda lines: join(lines, "\r\n"),
    "cr_in_row": lambda lines: join(lines[:3] + [lines[3] + "\r" + lines[4]] + lines[5:]),
    "cr_joins_extra_row": lambda lines: join(lines[:8] + [lines[8] + "\r" + lines[9]]),
    "no_final_newline": lambda lines: join(lines)[:-1],
    "single_step_no_final_newline": lambda lines: join([lines[0], lines[1], lines[5]])[:-1],
    "bom": lambda lines: b"\xef\xbb\xbf" + join(lines),
    "nul_byte": lambda lines: join(replace_cell(lines, 3, lambda c: c + "\x00", [2])),
    "invalid_utf8": lambda lines: join(lines[:3]) + b"\xff" + join(lines[3:]),
    "invalid_utf8_header": lambda lines: b"\xff" + join(lines),
    "non_ascii_digit": lambda lines: join(replace_cell(lines, 4, "\u0661", [6])),
    "padded_value": lambda lines: join(replace_cell(lines, 4, lambda c: f" {c} ", [6])),
    "nan": lambda lines: join(replace_cell(lines, 2, "nan", [7])),
    "inf": lambda lines: join(replace_cell(lines, 3, "-inf", [7])),
    "overflow": lambda lines: join(replace_cell(lines, 3, "1e999", [7])),
    "extra_column": lambda lines: join(lines[:2] + [lines[2] + ",0.5"] + lines[3:]),
    "missing_column": lambda lines: join(lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:]),
    "trailing_comma": lambda lines: join(lines[:2] + [lines[2] + ","] + lines[3:]),
    "unsorted_rows": lambda lines: join(lines[:2] + [lines[3], lines[2]] + lines[4:]),
    "duplicate_row": lambda lines: join(lines[:3] + [lines[2]] + lines[3:]),
    "gapped_trial_ids": lambda lines: join(replace_cell(lines, 0, "7", range(9, 13))),
    "negative_trial_ids": lambda lines: join(
        replace_cell(replace_cell(lines, 0, "-5", range(1, 5)), 0, "-1", TRIAL_1)
    ),
    "decreasing_trial_ids": lambda lines: join(replace_cell(lines, 0, "-1", TRIAL_1)),
    "trial_id_changes_mid_trial": lambda lines: join(replace_cell(lines, 0, "3", [11, 12])),
    "t_from_2": lambda lines: join(replace_cell(lines, 1, lambda c: str(int(c) + 1), TRIAL_1)),
    "mixed_horizons": lambda lines: join(lines[:8] + lines[9:]),
    "single_trial": lambda lines: join(lines[:5]),
    "single_step": lambda lines: join([lines[0], lines[1], lines[5], lines[9]]),
    "int64_overflow": lambda lines: join(
        replace_cell(lines, 0, "99999999999999999999", range(9, 13))
    ),
    "header_only": lambda lines: join(lines[:1]),
    "empty": lambda lines: b"",
    "wrong_header": lambda lines: join(["trial,t,s_1,s_2,a1_1,a2_1,a2_3"] + lines[1:]),
    **{
        f"trial_{spelling.strip()}": (
            lambda lines, spelling=spelling: join(replace_cell(lines, 0, spelling, TRIAL_1))
        )
        for spelling in ("1.0", "1e0", "+1", " 1", "01", "1_0", "1 ")
    },
}
# The variants the validating reader accepts; it reports an error for the rest.
ACCEPTED = {"well_formed", "crlf", "cr_in_row", "no_final_newline", "gapped_trial_ids",
            "negative_trial_ids", "int64_overflow", "single_trial", "single_step",
            "single_step_no_final_newline",
            "padded_value", "non_ascii_digit", "quoted_field", "quoted_header", "trial_+1",
            "trial_1", "trial_01"}


def write_variant(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(VARIANTS[name](base_lines(tmp_path)))
    return path


def outcome(read, path):
    """The batch ``read`` returns for ``path``, or its IngestError message."""
    try:
        return read(path, STATE_DIM, ACTION_DIMS)
    except IngestError as exc:
        return str(exc)


def assert_same_outcome(path):
    expected = outcome(trajio._read_by_line, path)
    got = outcome(trajio.read_trajectories, path)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, TrajectoryBatch)
        assert np.array_equal(got.states, expected.states)
        assert len(got.actions) == len(expected.actions)
        for a, b in zip(got.actions, expected.actions):
            assert np.array_equal(a, b)
    return expected


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_array_path_agrees_with_validating_reader(tmp_path, name):
    expected = assert_same_outcome(write_variant(tmp_path, name))
    assert isinstance(expected, TrajectoryBatch) == (name in ACCEPTED)


def test_not_utf8_names_the_line(tmp_path):
    path = write_variant(tmp_path, "invalid_utf8")
    with pytest.raises(IngestError, match=r"invalid_utf8\.csv: line 4: not valid UTF-8$"):
        trajio.read_trajectories(path, STATE_DIM, ACTION_DIMS)


def test_cell_over_csv_field_limit(tmp_path):
    # The one file the two readers treat differently: the array path has no
    # field size limit, the csv module does.
    lines = replace_cell(base_lines(tmp_path), 3, "0." + "1" * 140001, [3])
    path = tmp_path / "huge_cell.csv"
    path.write_bytes(join(lines))
    loaded = trajio.read_trajectories(path, STATE_DIM, ACTION_DIMS)
    assert loaded.states[0, 2, 1] == float("0." + "1" * 140001)
    with pytest.raises(IngestError, match=r"huge_cell\.csv: line 4: field larger than field limit"):
        trajio._read_by_line(path, STATE_DIM, ACTION_DIMS)


@pytest.mark.parametrize("where", ["first", "second"])
def test_files_longer_than_one_chunk(tmp_path, where):
    """Rows past the first ``np.loadtxt`` chunk, with a blank line in one chunk."""
    batch = base_batch(trials=2 * trajio._CHUNK_ROWS // 25 + 1, horizon=25)
    lines = base_lines(tmp_path, batch)
    path = tmp_path / "long.csv"
    path.write_bytes(join(lines))
    assert np.array_equal(assert_same_outcome(path).states, batch.states)
    row = 10 if where == "first" else trajio._CHUNK_ROWS + 10
    path.write_bytes(join(lines[:row] + [""] + lines[row:]))
    assert_same_outcome(path)


def test_array_path_serves_gen_demos_files(tmp_path, config_dir, monkeypatch):
    path = tmp_path / "demos.csv"
    config = str(config_dir / "lq_tracking.json")
    assert main(["gen-demos", "--config", config, "--trials", "3", "--seed", "1",
                 "--out", str(path)]) == 0
    reference = trajio._read_by_line(path, 8, (2, 2))

    def refuse(*args):
        raise AssertionError("the validating reader was called")

    monkeypatch.setattr(trajio, "_read_by_line", refuse)
    loaded = trajio.read_trajectories(path, 8, (2, 2))
    assert np.array_equal(loaded.states, reference.states)
    for a, b in zip(loaded.actions, reference.actions):
        assert np.array_equal(a, b)
    assert loaded.states.flags.c_contiguous
    assert all(a.flags.c_contiguous for a in loaded.actions)


SPECIAL = np.array([-0.0, 5e-324, 1e308, 3.0, -2.0, 1e16, 2.0**53, 0.1])


@pytest.mark.parametrize(
    "batch",
    [
        base_batch(trials=1),
        base_batch(horizon=1),
        base_batch(trials=2 * trajio._WRITE_TRIALS + 2),  # two full blocks and a partial one
        TrajectoryBatch(states=np.ones((2, 3, 1)),
                        actions=(np.ones((2, 3, 3)), np.zeros((2, 3, 1)))),
        TrajectoryBatch(states=SPECIAL.reshape(2, 2, 2),
                        actions=(-SPECIAL[:4].reshape(2, 2, 1), SPECIAL.reshape(2, 2, 2))),
    ],
    ids=["one_trial", "one_step", "three_blocks", "unequal_action_dims", "special_values"],
)
def test_writer_matches_cell_by_cell_writer(tmp_path, batch):
    fast, reference = tmp_path / "fast.csv", tmp_path / "reference.csv"
    trajio.write_trajectories(fast, batch)
    write_trajectories_by_cell(reference, batch)
    assert fast.read_bytes() == reference.read_bytes()


# Values the golden digests never see: NaN, signed infinities and zero, the
# smallest subnormal, and integers at and past the end of exact float spacing.
EDGE = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 2.0**53]


class TestTableWriters:
    """Every table writer, byte for byte equal to the cell-by-cell writer."""

    def check(self, tmp_path, write, header, rows):
        written, reference = tmp_path / "written.csv", tmp_path / "reference.csv"
        write(written)
        write_csv_by_cell(reference, header, rows)
        assert written.read_bytes() == reference.read_bytes()

    def test_iteration_trace(self, tmp_path):
        records = [
            IterationRecord(iteration=k + 1, max_deviation=EDGE[k], step_size=0.5**k,
                            agent_costs=np.array([EDGE[-1 - k], -EDGE[k]]))
            for k in range(len(EDGE))
        ]
        header = ["iteration", "max_deviation", "step_size", "cost_agent0", "cost_agent1"]
        rows = [[r.iteration, r.max_deviation, r.step_size, *r.agent_costs] for r in records]
        self.check(tmp_path,
                   lambda p: trajio.write_iteration_trace(p, IterationTrace(records), 2),
                   header, rows)

    @pytest.mark.parametrize("updates", [0, 3])
    def test_learn_trace(self, tmp_path, updates):
        # bool and int columns beside the floats; no update writes the header only.
        records = [
            AgentUpdateRecord(iteration=k // 2 + 1, agent=k % 2, weights=np.array(EDGE[k:k + 3]),
                              gap=-np.array(EDGE[-3 - k:len(EDGE) - k]), residual=EDGE[k],
                              solver_iterations=2**53 + k, effort_floored=k % 2 == 0,
                              cold_fallback=k == 1)
            for k in range(updates)
        ]
        header = ["iteration", "agent", "residual", "solver_iterations", "effort_floored",
                  "feature", "weight", "gap", "cold_fallback"]
        rows = [
            [r.iteration, r.agent, r.residual, r.solver_iterations, r.effort_floored,
             f, r.weights[f], r.gap[f], r.cold_fallback]
            for r in records for f in range(3)
        ]
        self.check(tmp_path, lambda p: trajio.write_learn_trace(p, LearnTrace(records)),
                   header, rows)
        if not updates:
            assert (tmp_path / "written.csv").read_text().count("\n") == 1

    def test_kl_table(self, tmp_path):
        names = [["tracking", "control"], ["tracking", "control", "obstacle0", "obstacle1"]]
        kls = [np.array(EDGE[:2]), np.array(EDGE[2:6])]
        rows = [[0, "tracking", EDGE[0]], [0, "control", EDGE[1]]]
        rows += [[1, name, value] for name, value in zip(names[1], EDGE[2:6])]
        self.check(tmp_path, lambda p: trajio.write_kl_table(p, kls, names),
                   ["agent", "feature", "kl"], rows)

    def test_goal_stats(self, tmp_path):
        stats = list(zip(EDGE, EDGE[::-1]))
        rows = [[i, mean, std] for i, (mean, std) in enumerate(stats)]
        self.check(tmp_path, lambda p: trajio.write_goal_stats(p, stats),
                   ["agent", "mean_dist", "std_dist"], rows)

    def test_rmse(self, tmp_path):
        rmse = np.array(EDGE)
        rows = [[t, value] for t, value in zip(range(1, len(EDGE) + 1), EDGE)]
        self.check(tmp_path, lambda p: trajio.write_rmse(p, rmse), ["t", "rmse"], rows)
