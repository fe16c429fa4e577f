"""Closed-loop benchmark of the ecegames CLI.

    python3 perfbench/run.py --workload {solve-mix,sample-eval,learn-crossing} \\
        --seed N --seconds S --trace {0,1}

Runs one workload (see ``workloads.py``) in this process against the
``src/`` tree next to this directory.  ``--trace 0`` measures set-up time
(the median of ``SETUP_REPEATS`` fresh processes that import the package,
write the inputs and run one warm-up command), then runs whole rounds of
checked commands until their wall time reaches ``--seconds``, timing a
calibration kernel (``kernel_s``) before each, and reports the end-to-end
metrics.  ``--trace 1`` runs the same loop with every layer
wrapped in spans (see ``tracing.py``) and reports the per-layer metrics.

The last line of standard output is the result: ``{"correct", "attempted",
"failed", "metrics"}``.  The line before it records the environment and the
workload's per-command metrics, which are also written, with the spans of a
traced run, under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
KERNEL_LOOPS = 3000
KERNEL_NOMINAL_S = 0.05


def cap_blas() -> None:
    """Cap BLAS at ``BLAS_THREADS``; call before numpy is first imported."""
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS


def kernel_s() -> float:
    """Wall time of a fixed loop of small numpy operations, the kind that
    dominate the program.  The machine's speed drifts by up to a factor of two
    over minutes; each command's time in ``ops_per_s`` is scaled by the
    kernel timed just before it to the speed at which the kernel takes
    ``KERNEL_NOMINAL_S``."""
    import numpy as np

    a, b, eye = np.linspace(-1.0, 1.0, 64).reshape(8, 8), np.ones(8), np.eye(8)
    start = perf_counter()
    for i in range(KERNEL_LOOPS):
        x = np.linalg.solve(a + (4.0 + 1e-6 * i) * eye, b)
        np.einsum("i,ij->j", a @ x, a)
    return perf_counter() - start


# name: (unit, better); the gate reads these with --trace 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the ecegames CLI.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(records) -> dict:
    import numpy

    kinds = sorted({r.kind for r in records})
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "clients": 1,
        "loop": "closed",
        "commands": {kind: sum(r.kind == kind for r in records) for kind in kinds},
        "rounds": len({r.round for r in records}),
    }


def set_up_once(args, work_dir: Path) -> float:
    """One set-up in a fresh process; returns its wall time."""
    work_dir.mkdir(parents=True)
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-into", str(work_dir)]
    start = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    seconds = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stdout}{proc.stderr}")
    return seconds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ecegames" / "cli.py").is_file():
        print(f"error: no ecegames sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cap_blas()
    sys.path.insert(0, str(ROOT / "src"))

    import ecegames
    import tracing
    import workloads as wl

    if Path(ecegames.__file__).resolve().parent != ROOT / "src" / "ecegames":
        print(f"error: imported ecegames from {ecegames.__file__}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    make = wl.WORKLOADS[args.workload]
    reference = wl.load_reference()

    if args.setup_into is not None:
        workload = make(Path(args.setup_into), args.seed, reference)
        workload.prepare()
        records: list = []
        wl.run_command(workload.warm_up(), records, 0)
        if records[0].error:
            print(records[0].error, file=sys.stderr)
            return 1
        return 0

    work = ROOT / ".perfbench_work"
    run_dir = work / f"run-{os.getpid()}"
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_times, kernels = [], []
        if args.trace:
            inputs = run_dir / "inputs"
            inputs.mkdir(parents=True)
            make(inputs, args.seed, reference).prepare()
        else:
            for k in range(SETUP_REPEATS):
                inputs = run_dir / f"setup{k}"
                setup_times.append(set_up_once(args, inputs))
        workload = make(inputs, args.seed, reference)
        warm: list = []
        wl.run_command(workload.warm_up(), warm, 0)
        if warm[0].error:
            raise RuntimeError(f"warm-up failed: {warm[0].error}")

        if args.trace:
            tracer = tracing.Tracer()
            with tracing.install(tracer), tracer.root():
                records = wl.run_timed(workload, args.seconds, tracer)
            metrics = tracer.metrics()
            tracer.write(results / f"{args.workload}-seed{args.seed}-spans.csv")
        else:
            time_kernel = lambda: kernels.append(kernel_s())  # noqa: E731
            records = wl.run_timed(workload, args.seconds, before=time_kernel)
            scaled = [r.seconds * KERNEL_NOMINAL_S / k for r, k in zip(records, kernels)]
            metrics = {
                "setup_s": median(setup_times),
                "ops_per_s": len(records) / sum(scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(r.error is not None for r in records)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(records),
        "details": workload.details(records)
        | {"error_rate": failed / len(records), "setup_runs_s": setup_times},
        "unscaled": {
            "ops_per_s": len(records) / sum(r.seconds for r in records),
            "kernel_p50_s": median(kernels) if kernels else None,
        },
        "errors": [r.error for r in records if r.error][:20],
    }
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        timings = [[r.round, r.kind, r.seconds, r.work] for r in records]
        json.dump(record | {"metrics": metrics, "commands": timings}, fh, indent=1)
    units = dict(END_TO_END) if not args.trace else {n: (u, b) for n, u, b in tracing.PER_LAYER}
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
