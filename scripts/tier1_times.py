"""Wall time of the tier-1 test suite, per acceptance criterion and in total.

    python3 scripts/tier1_times.py [--repeats 3] [pytest args ...]

Runs the tier-1 command (``python -m pytest -q --continue-on-collection-errors``
with ``src`` first on the path) ``--repeats`` times in fresh interpreters,
with ``--durations=0 --durations-min=0`` so pytest reports the setup, call
and teardown time of every test.  For each acceptance criterion
(``tests/test_acceptance.py::test_criterion_N_*``) it sums those phases, and
it sums every other test as ``rest``; ``total`` is the session wall time
that pytest prints.  It prints the median, least and largest of each over
the repeats, the pass/fail summary line of every run, and one JSON line of
the medians.  Extra arguments go to pytest, e.g. ``-m "not slow"``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown)\s+(.+)$")
CRITERION = re.compile(r"tests/test_acceptance\.py::test_criterion_(\d+)_")
SESSION = re.compile(r"^=*\s*(.*?) in (\d+(?:\.\d+)?)s")


def parse_args(argv=None) -> tuple[argparse.Namespace, list[str]]:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    args, extra = parser.parse_known_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")
    return args, extra


def tally(output: str) -> tuple[dict[str, float], str]:
    """Seconds per group in the output of one pytest run, and its pass/fail
    summary."""
    groups: dict[str, float] = {}
    summary = "no summary line"
    for line in output.splitlines():
        if m := DURATION.match(line.strip()):
            c = CRITERION.match(m[3])
            key = f"criterion {c[1]}" if c else "rest"
            groups[key] = groups.get(key, 0.0) + float(m[1])
        elif m := SESSION.match(line.strip()):
            summary, groups["total"] = m[1], float(m[2])
    return groups, summary


def run_once(extra: list[str]) -> tuple[dict[str, float], str]:
    """Seconds per group of one tier-1 run, and its pass/fail summary."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=0", "--durations-min=0", *extra],
        cwd=ROOT, env=env, capture_output=True, text=True,
    ).stdout
    return tally(out)


def main(argv=None) -> int:
    args, extra = parse_args(argv)
    runs = []
    for i in range(args.repeats):
        groups, summary = run_once(extra)
        runs.append(groups)
        print(f"run {i}: {summary}, {groups.get('total', float('nan')):.1f} s", flush=True)
    names = sorted({k for r in runs for k in r if k.startswith("criterion")},
                   key=lambda k: int(k.split()[1])) + ["rest", "total"]
    print(f"{'group':14s} {'median s':>9s} {'least s':>9s} {'most s':>9s}")
    medians = {}
    for name in names:
        values = [r.get(name, 0.0) for r in runs]
        medians[name] = median(values)
        print(f"{name:14s} {medians[name]:9.2f} {min(values):9.2f} {max(values):9.2f}")
    print(json.dumps({"repeats": args.repeats, "median_s": medians}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
