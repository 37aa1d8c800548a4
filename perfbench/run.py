"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout of attnctl (the package is imported
from ``src/``, not from an installed copy). The command first times
SETUP_PROBES fresh processes that import attnctl and build the workload's
inputs, then runs the workload itself in one more fresh process. Every
process gets one BLAS thread and no transparent huge pages for numpy
arrays. The last line of standard output is the JSON
result; per-operation diagnostics go to standard error.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("learn-seeds-8x8", "synth-boxes-64x64", "experiment-16x16")
SETUP_PROBES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> "dict[str, str]":
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    # numpy asks for transparent huge pages on large arrays, and whether the
    # host grants them varies; the 64x64 peak resident set read 154, 144 and
    # 139 MB in different hours while steady within each.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "attnctl", "__init__.py")):
        print(f"error: no attnctl sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    common = [sys.executable, WORKER, "--workload", args.workload,
              "--seed", str(args.seed)]

    def call(extra: "list[str]") -> "subprocess.CompletedProcess[str]":
        return subprocess.run(common + extra, env=env, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))

    try:
        setup = []
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            probe = call(["--setup-only"])
            setup.append(time.perf_counter() - start)
            if probe.returncode != 0:
                print("error: set-up probe failed", file=sys.stderr)
                return 1
        result = call(["--seconds", str(args.seconds), "--trace", str(args.trace)])
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    if result.returncode != 0 or not result.stdout.strip():
        print(f"error: workload exited with {result.returncode}", file=sys.stderr)
        return 1

    report = json.loads(result.stdout.strip().splitlines()[-1])
    if not args.trace:
        report["metrics"] = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            **report["metrics"],
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
