"""How ``scripts/tier1_times.py`` groups pytest's per-test durations."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "tier1_times.py"
spec = importlib.util.spec_from_file_location("tier1_times", SCRIPT)
tier1_times = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tier1_times)

OUTPUT = """\
........................................................................ [ 50%]
..........s                                                              [100%]
============================= slowest durations ==============================
32.07s call     tests/test_acceptance.py::test_criterion_7_baseline_ordering
5.45s call     tests/test_acceptance.py::test_criterion_6_weight_recovery
0.50s setup    tests/test_acceptance.py::test_criterion_6_weight_recovery
1.25s call     tests/test_cli.py::test_input_error[command0-2]
0.25s call     tests/test_metrics.py::test_case[a b]
0.00s teardown tests/test_acceptance.py::test_criterion_10_something
82 passed, 1 skipped in 40.50s
"""


def test_phases_are_summed_per_criterion_and_the_rest():
    groups, summary = tier1_times.tally(OUTPUT)
    assert summary == "82 passed, 1 skipped"
    assert groups == pytest.approx(
        {"criterion 7": 32.07, "criterion 6": 5.95, "criterion 10": 0.0, "rest": 1.5,
         "total": 40.5}
    )


def test_output_without_a_summary():
    groups, summary = tier1_times.tally("collected 0 items\n")
    assert groups == {} and summary == "no summary line"
