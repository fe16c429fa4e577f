"""Golden SHA-256 digests of CLI output files.

Runs the criterion-8 command set on ``lq_tracking`` and a ``gen-demos`` /
``solve`` pair on ``two_agent_crossing``, then compares the SHA-256 of every
output file with ``tests/golden/digests.json``.  The digests pin the exact
floating-point path (numpy, BLAS, summation order), so a change that moves
any output, even by one unit in the last place, fails here.  Such a change
regenerates the digests and records which files changed, and by how much,
in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "golden" / "digests.json"
LQ = str(ROOT / "configs" / "lq_tracking.json")
CROSSING = str(ROOT / "configs" / "two_agent_crossing.json")

# Commands in run order; "{dir}" is the output directory.
COMMANDS = [
    ["gen-demos", "--config", LQ, "--trials", "3", "--seed", "5", "--out", "{dir}/lq_demos3.csv"],
    ["solve", "--config", LQ, "--out-policy", "{dir}/lq_policy.json",
     "--trace", "{dir}/lq_solve_trace.csv"],
    ["gen-demos", "--config", LQ, "--trials", "5", "--seed", "3", "--out", "{dir}/lq_demos5.csv"],
    ["learn", "--config", LQ, "--demos", "{dir}/lq_demos5.csv", "--seed", "2",
     "--out-weights", "{dir}/lq_weights.json", "--trace", "{dir}/lq_learn_trace.csv"],
    ["eval", "--config", LQ, "--demos", "{dir}/lq_demos5.csv", "--trials", "5", "--seed", "4",
     "--out", "{dir}/lq_eval"],
    ["gen-demos", "--config", CROSSING, "--trials", "20", "--seed", "11",
     "--out", "{dir}/crossing_demos.csv"],
    ["solve", "--config", CROSSING, "--out-policy", "{dir}/crossing_policy.json",
     "--trace", "{dir}/crossing_solve_trace.csv"],
]


def compute_digests(out_dir: Path) -> dict[str, str]:
    """Run every command into ``out_dir``; SHA-256 of each output file by name."""
    from ecegames.cli import main

    for args in COMMANDS:
        rc = main([a.format(dir=out_dir) for a in args])
        if rc != 0:
            raise RuntimeError(f"command failed with exit code {rc}: {args[0]}")
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def test_golden_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    actual = compute_digests(tmp_path)
    changed = sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))
    assert not changed, f"output digests changed: {changed}"


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute_digests(Path(tmp))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
