"""Golden SHA-256 digests of CLI output files.

Runs the criterion-8 command set on ``lq_tracking``, a ``gen-demos`` /
``solve`` pair on ``two_agent_crossing`` and a joint and an independent
``learn`` on the crossing demos (capped at one sweep, so neither converges
and both exit 1), then compares the
SHA-256 of every output file with ``tests/golden/digests.json``.  The
digests pin the exact floating-point path (numpy, BLAS, summation order),
so a change that moves any output, even by one unit in the last place,
fails here.  Such a change
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

# Learner settings of the crossing learn runs; compute_digests writes the
# crossing config with these settings to LEARN_CONFIG in the output directory.
LEARN_CONFIG = "crossing_learn.json"
LEARN_CAPS = {"max_outer_iterations": 1}
NOT_CONVERGED = 1


def _learn(mode: str) -> list[str]:
    return ["learn", "--config", "{dir}/" + LEARN_CONFIG, "--demos", "{dir}/crossing_demos.csv",
            "--mode", mode, "--seed", "9", "--out-weights", "{dir}/crossing_weights_%s.json" % mode,
            "--trace", "{dir}/crossing_learn_trace_%s.csv" % mode]


# (expected exit code, command) in run order; "{dir}" is the output directory.
COMMANDS = [
    (0, ["gen-demos", "--config", LQ, "--trials", "3", "--seed", "5",
         "--out", "{dir}/lq_demos3.csv"]),
    (0, ["solve", "--config", LQ, "--out-policy", "{dir}/lq_policy.json",
         "--trace", "{dir}/lq_solve_trace.csv"]),
    (0, ["gen-demos", "--config", LQ, "--trials", "5", "--seed", "3",
         "--out", "{dir}/lq_demos5.csv"]),
    (0, ["learn", "--config", LQ, "--demos", "{dir}/lq_demos5.csv", "--seed", "2",
         "--out-weights", "{dir}/lq_weights.json", "--trace", "{dir}/lq_learn_trace.csv"]),
    (0, ["eval", "--config", LQ, "--demos", "{dir}/lq_demos5.csv", "--trials", "5",
         "--seed", "4", "--out", "{dir}/lq_eval"]),
    (0, ["gen-demos", "--config", CROSSING, "--trials", "20", "--seed", "11",
         "--out", "{dir}/crossing_demos.csv"]),
    (0, ["solve", "--config", CROSSING, "--out-policy", "{dir}/crossing_policy.json",
         "--trace", "{dir}/crossing_solve_trace.csv"]),
    (NOT_CONVERGED, _learn("joint")),
    (NOT_CONVERGED, _learn("independent")),
]


def compute_digests(out_dir: Path) -> dict[str, str]:
    """Run every command into ``out_dir``; SHA-256 of each output file by name."""
    from ecegames.cli import main

    config = json.loads(Path(CROSSING).read_text())
    config["learner"].update(LEARN_CAPS)
    (out_dir / LEARN_CONFIG).write_text(json.dumps(config))
    for expected, args in COMMANDS:
        rc = main([a.format(dir=out_dir) for a in args])
        if rc != expected:
            raise RuntimeError(f"{args[0]} exited {rc}, expected {expected}")
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name != LEARN_CONFIG
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
