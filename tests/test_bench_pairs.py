"""The regression verdict of ``scripts/bench_pairs.py`` on synthetic runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# A learn-crossing set-up time, lower is better, bound 0.25: medians
# 0.557 s for the parent and 0.750 s for the change, x1.35.
PARENT = [0.541, 0.552, 0.556, 0.560, 0.571, 0.549, 0.566, 0.554, 0.558, 0.575]
CHANGE = [0.731, 0.745, 0.749, 0.752, 0.766, 0.738, 0.759, 0.748, 0.751, 0.770]


def summary(parent, change, higher_better=False, bound=0.25):
    return bench_pairs.summarize("m", higher_better, parent, change, bound)


def test_setup_time_regression_reads_regressed():
    s = summary(PARENT, CHANGE)
    assert s["parent_quartiles"][1] == pytest.approx(0.557)
    assert s["change_quartiles"][1] == pytest.approx(0.750)
    assert s["verdict"] == "REGRESSED" and s["bound"] == 0.25


def test_within_the_bound_reads_ok():
    assert summary(PARENT, [1.2 * p for p in PARENT])["verdict"] == "ok"
    assert summary(PARENT, PARENT)["verdict"] == "ok"


def test_higher_is_better():
    rates = [100.0 + k for k in range(10)]
    assert summary(rates, [0.7 * r for r in rates], higher_better=True)["verdict"] == "REGRESSED"
    assert summary(rates, [0.8 * r for r in rates], higher_better=True)["verdict"] == "ok"


def test_wide_parent_spread_reads_unresolved_unless_every_change_run_wins():
    # Parent quartiles 0.2425 and 0.3375 around 0.285: an IQR of 33% of the
    # median, wider than the bound.
    parent = [0.24, 0.25, 0.22, 0.33, 0.35, 0.27, 0.30, 0.34, 0.23, 0.36]
    overlapping = [1.3 * p for p in parent[5:]] + [1.3 * p for p in parent[:5]]
    assert summary(parent, overlapping)["verdict"] == "unresolved"
    assert summary(parent, [0.9 * p for p in parent])["verdict"] == "unresolved"
    assert summary(parent, [0.5] * 10)["verdict"] == "unresolved"
    assert summary(parent, [0.2] * 10)["verdict"] == "ok"
