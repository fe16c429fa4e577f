"""Regenerate ``reference.json``, the stored answers the output checks compare with.

    python3 perfbench/make_reference.py

* ``solve``: nominal states at the checkpoint steps of every jittered
  ``solve-mix`` config (the pool is fixed by ``POOL_SEED``).
* ``sample``: per-step mean states of a 1000-trial ``gen-demos`` run of each
  ``sample-eval`` scenario.
* ``learn``: per mode, the mean of the weights learned by ``LEARN_RUNS``
  capped runs on the workload's fixed set-up demos with different learner
  seeds, and a per-weight tolerance of ``LEARN_TOL_SD`` times their
  standard deviation.  That spread is the Monte-Carlo error of the
  50-sample feature expectations alone; the demos, and so the target the
  learner moves towards, are the same in every run.

Run it again only when a change to the program is meant to change these
answers, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import shutil
from pathlib import Path

import run  # imports no numpy

run.cap_blas()
sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402

LEARN_RUNS = 64
LEARN_TOL_SD = 5.0


def _run(argv: list[str]) -> str:
    rc, out, err = wl.execute(argv)
    if rc not in (0, 1):
        raise SystemExit(f"{' '.join(argv)}: exit code {rc}\n{err}")
    return out


def solve_reference(tmp: Path) -> dict:
    out = {}
    for name in wl.SOLVE_SCENARIOS:
        states = []
        for k, doc in enumerate(wl.jittered_pool(name)):
            config = wl.write_json(tmp / f"{name}_{k}.json", doc)
            policy = tmp / "policy.json"
            text = _run(["solve", "--config", str(config), "--out-policy", str(policy)])
            print(f"{name}[{k}]: {text.strip()}", file=sys.stderr)
            with open(policy, "r", encoding="utf-8") as fh:
                nominal = np.asarray(json.load(fh)["nominal_states"])
            states.append(nominal[wl.checkpoints(doc["horizon"])].tolist())
        out[name] = states
    return out


def sample_reference(tmp: Path) -> dict:
    from checks import demo_mean_states

    out = {}
    docs = {"lq_tracking": wl.shipped_config("lq_tracking"), "lq_tracking_unicycle": wl.unicycle_variant()}
    for name, doc in docs.items():
        config = wl.write_json(tmp / f"{name}.json", doc)
        demos = tmp / "demos.csv"
        _run(["gen-demos", "--config", str(config), "--trials", str(wl.SAMPLE_TRIALS),
              "--seed", "123456789", "--out", str(demos)])
        horizon = doc["horizon"]
        with open(demos, "r", encoding="utf-8") as fh:
            state_dim = sum(1 for col in fh.readline().split(",") if col.startswith("s_"))
        mean, _ = demo_mean_states(demos, state_dim, horizon)
        steps = wl.checkpoints(horizon)
        out[name] = {"checkpoints": steps, "mean_states": mean[steps].tolist()}
    return out


def learn_reference(tmp: Path) -> dict:
    workload = wl.LearnCrossing(tmp, 0, {})
    workload.prepare()
    config, demos = tmp / "learner.json", tmp / "demos.csv"
    learned = {mode: [] for mode in wl.LEARN_MODES}
    for k in range(LEARN_RUNS):
        for mode in wl.LEARN_MODES:
            weights = tmp / "weights.json"
            _run(["learn", "--config", str(config), "--demos", str(demos), "--mode", mode,
                  "--seed", str(500_000 + 104_729 * k), "--out-weights", str(weights)])
            with open(weights, "r", encoding="utf-8") as fh:
                learned[mode].append(np.concatenate(json.load(fh)["weights"]))
        print(f"learn run {k + 1}/{LEARN_RUNS}", file=sys.stderr)
    out = {}
    for mode, rows in learned.items():
        rows = np.asarray(rows)
        sd = rows.std(axis=0, ddof=1)
        worst = np.max(np.abs(rows - rows.mean(axis=0)) / sd)
        print(f"learn {mode}: largest deviation of a run {worst:.2f} SD", file=sys.stderr)
        out[mode] = {
            "runs": LEARN_RUNS,
            "mean": rows.mean(axis=0).tolist(),
            "sd": sd.tolist(),
            "tolerance": (LEARN_TOL_SD * sd).tolist(),
        }
    return out


def main() -> None:
    tmp = wl.CONFIGS.parent / ".perfbench_work" / "make-reference"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        reference = {
            "solve": solve_reference(tmp),
            "sample": sample_reference(tmp),
            "learn": learn_reference(tmp),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(wl.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
