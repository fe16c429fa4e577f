"""Paired benchmark runs of a parent revision against this tree.

    python3 scripts/bench_pairs.py --parent REV --workload sample-eval \\
        --pairs 10 --seconds 20 --seed-base 1

Extracts REV with ``git archive`` into a temporary directory (removed on
exit) and runs ``perfbench/run.py --trace 0`` of that tree and of this one
in alternating order, one pair per seed ``seed-base + i``: pair 0 runs the
parent first, pair 1 the change first, and so on.  For every end-to-end
metric that ``BENCHMARK.json`` names it prints the per-pair values, the
medians and quartiles of both sides, the parent's interquartile range, the
number of pairs the change wins, and whether the claim rule holds: at least
10 pairs, the change better in at least 9 of 10 of them, and its median
better than the parent's by more than the parent's IQR.  Runs
whose checks failed are reported; their metrics count as measured.

Each metric also gets a regression verdict against its ``BENCHMARK.json``
``bound``, a fraction of the parent's median: ``unresolved`` when the
parent's IQR is wider than the bound and not every change run beats every
parent run; otherwise ``REGRESSED`` when the change's median is worse than
the parent's by more than the bound, and ``ok`` when it is not.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    return args


def extract(rev: str, into: Path) -> None:
    """Write the files of revision ``rev`` under ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run of ``tree``; its result line."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(sign: float, bound: float, parent: list[float], change: list[float]) -> str:
    """``ok``, ``REGRESSED`` or ``unresolved`` (module docstring); ``sign`` is
    +1 where higher is better and -1 where lower is."""
    q1, base, q3 = quartiles(parent)
    if q3 - q1 > bound * base and min(sign * c for c in change) <= max(sign * p for p in parent):
        return "unresolved"
    return "REGRESSED" if sign * (base - median(change)) > bound * base else "ok"


def summarize(name: str, higher_better: bool, parent: list[float], change: list[float],
              bound: float) -> dict:
    sign = 1.0 if higher_better else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    iqr = pq[2] - pq[0]
    gain = sign * (median(change) - median(parent))
    return {
        "metric": name,
        "better": "higher" if higher_better else "lower",
        "parent": parent,
        "change": change,
        "parent_quartiles": pq,
        "change_quartiles": cq,
        "parent_iqr": iqr,
        "median_ratio": median(change) / median(parent) if median(parent) else math.nan,
        "wins": wins,
        "claim_holds": len(parent) >= MIN_PAIRS
        and wins >= math.ceil(WIN_SHARE * len(parent))
        and gain > iqr,
        "bound": bound,
        "verdict": verdict(sign, bound, parent, change),
    }


def report(summary: dict) -> None:
    s = summary
    print(f"\n{s['metric']} ({s['better']} is better)")
    print("  pair   parent     change")
    for i, (p, c) in enumerate(zip(s["parent"], s["change"])):
        print(f"  {i:4d}  {p:9.4f}  {c:9.4f}")
    for side in ("parent", "change"):
        q1, q2, q3 = s[f"{side}_quartiles"]
        print(f"  {side:6s} median {q2:.4f}  quartiles [{q1:.4f}, {q3:.4f}]")
    print(f"  parent IQR {s['parent_iqr']:.4f}; change/parent median {s['median_ratio']:.3f}; "
          f"change wins {s['wins']}/{len(s['parent'])}; claim rule holds: {s['claim_holds']}")
    print(f"  regression check: change/parent median {s['median_ratio']:.3f} against bound "
          f"{s['bound']:g} of the parent median: {s['verdict']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    values = {side: {m["name"]: [] for m in metrics} for side in ("parent", "change")}
    failed = {"parent": 0, "change": 0}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_tree = Path(tmp)
        extract(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run(trees[side], args.workload, seed, args.seconds)
                failed[side] += result["failed"]
                for m in metrics:
                    values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"pair {i} (seed {seed}, {order[0]} first) done", file=sys.stderr, flush=True)
    print(f"workload {args.workload}: {args.pairs} pairs, --seconds {args.seconds:g}, "
          f"seeds {args.seed_base}..{args.seed_base + args.pairs - 1}, parent {args.parent}")
    print(f"failed commands: parent {failed['parent']}, change {failed['change']}")
    summaries = [
        summarize(m["name"], m["better"] == "higher", values["parent"][m["name"]],
                  values["change"][m["name"]], m["bound"])
        for m in metrics
    ]
    for s in summaries:
        report(s)
    print(json.dumps({"workload": args.workload, "failed": failed, "metrics": summaries}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
