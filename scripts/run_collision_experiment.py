#!/usr/bin/env python3
"""End-to-end synthetic collision-avoidance experiment.

Generates demonstrations under the scenario's true weights, learns weights
in joint and independent mode, and evaluates all three weight sets (true,
joint, independent) against the demonstrations.  Prints table-style
summaries and leaves all intermediate files in the output directory.

Usage:
    python3 scripts/run_collision_experiment.py \
        --config configs/two_agent_crossing.json --out results/ --seed 0
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from ecegames.cli import main as cli


def run(argv):
    rc = cli(argv)
    if rc != 0:
        sys.exit(rc)


def load_kl(path):
    with open(path) as fh:
        return [(r["agent"], r["feature"], float(r["kl"])) for r in csv.DictReader(fh)]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="configs/two_agent_crossing.json")
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=0,
                        help="demos draw from seed + 1000, evaluations from seed + 2000")
    parser.add_argument("--trials", type=int, default=200)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    demos = out / "demos.csv"

    print(f"[1/4] generating {args.trials} demonstrations")
    run(["gen-demos", "--config", args.config, "--trials", str(args.trials),
         "--seed", str(args.seed + 1000), "--out", str(demos)])

    weight_files = {}
    for step, mode in ((2, "joint"), (3, "independent")):
        print(f"[{step}/4] learning weights ({mode} mode)")
        wpath = out / f"weights_{mode}.json"
        run(["learn", "--config", args.config, "--demos", str(demos), "--mode", mode,
             "--out-weights", str(wpath), "--trace", str(out / f"learn_trace_{mode}.csv")])
        weight_files[mode] = wpath

    print("[4/4] evaluating true / joint / independent weights")
    rows = {}
    for label, wpath in (("true", None), *weight_files.items()):
        ev_dir = out / f"eval_{label}"
        argv = ["eval", "--config", args.config, "--demos", str(demos),
                "--trials", str(args.trials), "--seed", str(args.seed + 2000),
                "--out", str(ev_dir)]
        if wpath is not None:
            argv += ["--weights", str(wpath)]
        run(argv)
        rows[label] = load_kl(ev_dir / "kl.csv")

    print("\nKL(demo || model) per agent and feature:")
    header = ["agent", "feature"] + list(rows)
    print("  " + "  ".join(f"{h:>12}" for h in header))
    for idx in range(len(rows["true"])):
        agent, feature, _ = rows["true"][idx]
        cells = [f"{rows[label][idx][2]:12.4f}" for label in rows]
        print("  " + f"{agent:>12}  {feature:>12}  " + "  ".join(cells))
    totals = {label: sum(v for _, _, v in kl) for label, kl in rows.items()}
    print("\ntotal KL: " + ", ".join(f"{k}={v:.4f}" for k, v in totals.items()))

    for label in rows:
        stats_file = out / f"eval_{label}" / "goal_stats.csv"
        with open(stats_file) as fh:
            stats = list(csv.DictReader(fh))
        summary = ", ".join(
            f"agent {r['agent']}: {float(r['mean_dist']):.3f}+-{float(r['std_dist']):.3f}"
            for r in stats
        )
        print(f"goal distances ({label}): {summary}")


if __name__ == "__main__":
    main()
