"""Traced figures on the shipped ``two_agent_crossing`` config, for comparison
with the baseline recorded in ROADMAP.md.

    python3 perfbench/crosscheck.py

Runs ``solve``, ``gen-demos --trials 200`` and one capped joint ``learn``
under the tracer and prints: the solve's time, iterations and quadratize
share; the time of ``rollout_batch`` for 200 trials; and the time of one
learner agent update with its solve and rollout shares.
"""

from __future__ import annotations

import shutil
import sys

import run  # imports no numpy

run.cap_blas()
sys.path.insert(0, str(run.ROOT / "src"))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _total(tracer: tracing.Tracer, name: str, command: int) -> tuple[float, int]:
    spans = [s for s in tracer.spans if s[0] == name and s[4] == command]
    return sum(s[2] - s[1] for s in spans), len(spans)


def main() -> None:
    work = wl.CONFIGS.parent / ".perfbench_work" / "crosscheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = str(wl.CONFIGS / "two_agent_crossing.json")
        learner = wl.capped_learner()
        learner["learner"]["max_outer_iterations"] = 1
        learner = str(wl.write_json(work / "learner.json", learner))
        demos = str(work / "demos.csv")
        commands = [
            ["solve", "--config", config, "--out-policy", str(work / "policy.json")],
            ["gen-demos", "--config", config, "--trials", "200", "--seed", "1000", "--out", demos],
            ["learn", "--config", learner, "--demos", demos, "--mode", "joint", "--seed", "0",
             "--out-weights", str(work / "weights.json")],
        ]
        tracer = tracing.Tracer()
        with tracing.install(tracer), tracer.root():
            for argv in commands:
                tracer.next_command()
                rc, _, err = wl.execute(argv)
                if rc not in (0, 1):
                    raise SystemExit(f"{argv[0]}: exit code {rc}\n{err}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    solve_s, _ = _total(tracer, "ilq.solve_ece", 1)
    quad_s, iterations = _total(tracer, "ilq.quadratize", 1)
    print(f"solve_ece: {solve_s:.3f} s for {iterations} iterations, "
          f"quadratize {quad_s / solve_s:.0%} of it")
    batch_s, _ = _total(tracer, "simulate.rollout_batch", 2)
    print(f"rollout_batch: {batch_s:.3f} s for 200 trials ({batch_s / 200 * 1e3:.2f} ms each)")
    learn_s, _ = _total(tracer, "irl.run_mairl", 3)
    learn_solve_s, _ = _total(tracer, "ilq.solve_ece", 3)
    sample_s, _ = _total(tracer, "simulate.simulate_stochastic", 3)
    features_s, _ = _total(tracer, "features.eval_features", 3)
    updates = wl.capped_learner()["num_agents"]  # one sweep
    print(f"learner update: {learn_s / updates:.3f} s; solve {learn_solve_s / learn_s:.0%}, "
          f"rollouts {sample_s / learn_s:.0%}, feature sums {features_s / learn_s:.0%} "
          f"(empirical demo means included)")


if __name__ == "__main__":
    main()
