"""How far the golden output files of this tree move from those of a revision.

    python3 scripts/golden_diff.py --parent REV

Extracts REV with ``git archive`` into a temporary directory (removed on
exit) and runs ``compute_digests`` of ``tests/test_golden.py`` in that tree
and in this one, each in its own interpreter with its own ``src`` first on
the path, so each tree writes its golden output files.  For every file whose
digest differs it prints the largest absolute difference over the file's
numeric cells: both files are split into numbers and the text between them,
and that text must match.  A file whose text or number count differs, or
that only one tree writes, is reported as such.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import extract

ROOT = Path(__file__).resolve().parent.parent
NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan))")
RUN = """
import json, sys
from pathlib import Path
sys.path.insert(0, str(Path(sys.argv[1]) / "tests"))
from test_golden import compute_digests
print(json.dumps(compute_digests(Path(sys.argv[2]))))
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    return parser.parse_args(argv)


def golden_outputs(tree: Path, out: Path) -> dict[str, str]:
    """Write the golden output files of ``tree`` under ``out``; their digests."""
    out.mkdir()
    paths = [str(tree / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, "-c", RUN, str(tree), str(out)],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.exit(f"golden outputs of {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def largest_difference(a: str, b: str) -> float | None:
    """Largest absolute difference over the numbers of two texts, or None
    when the text around the numbers or the count of numbers differs."""
    parts_a, parts_b = NUMBER.split(a), NUMBER.split(b)
    if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
        return None
    return max(
        (abs(float(x) - float(y)) for x, y in zip(parts_a[1::2], parts_b[1::2])), default=0.0
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="golden_diff_") as tmp:
        tmp = Path(tmp)
        extract(args.parent, tmp / "parent")
        parent = golden_outputs(tmp / "parent", tmp / "parent_out")
        change = golden_outputs(ROOT, tmp / "change_out")
        names = sorted(parent.keys() | change.keys())
        changed = [name for name in names if parent.get(name) != change.get(name)]
        print(f"{len(changed)} of {len(names)} golden files differ from {args.parent}")
        for name in changed:
            if name not in parent or name not in change:
                print(f"{name:40s} only in {'change' if name in change else 'parent'}")
                continue
            texts = [(tmp / side / name).read_text() for side in ("parent_out", "change_out")]
            diff = largest_difference(*texts)
            print(f"{name:40s} " + ("layout differs" if diff is None else f"{diff:.3e}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
