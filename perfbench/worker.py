"""Run one workload in this process and print its result as one JSON line.

Started by ``run.py`` with one BLAS thread and with ``src`` and this
directory on ``PYTHONPATH``. With ``--setup-only`` it builds the workload's
inputs and exits, which is what ``run.py`` times as set-up.

Untraced (``--trace 0``) it reports the program seconds per operation,
estimated from the upper quartile of the run's part times (see
``PART_QUANTILE``), and the peak resident set of the process through set-up
and the warm-up operation. Traced (``--trace 1``) it wraps the program's
module functions (see ``spans.py``), reports per-module times and counts
per operation, then times ``forward_cache`` and ``backprop`` on one-layer
stacks at the workload's own shapes.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import numpy as np  # noqa: E402

from attnctl import denoiser, gradients  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

KERNEL_BATCH_S = 0.2
KERNEL_BATCHES = 5
# The host's speed moves between a steady slow state and bursts in which a
# part takes as little as 55% of its steady time, over seconds to minutes.
# The median of a run's part times follows whichever of the two the run
# happened to meet; the upper quartile stays nearer the steady state.
# Timing each part (one learning run, one synthesis run, one command)
# rather than each operation gives a 30-second run about 80 samples instead
# of 8 on the learning sweep, and 13 instead of 7 on synthesis.
PART_QUANTILE = 0.75


def _per_call_us(fn) -> float:
    """Median over batches of the mean time per call, in microseconds. A
    batch repeats the call until it lasts at least KERNEL_BATCH_S."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    reps = max(1, math.ceil(KERNEL_BATCH_S / max(first, 1e-9)))
    per_call = []
    for _ in range(KERNEL_BATCHES):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((time.perf_counter() - start) / reps)
    return 1e6 * statistics.median(per_call)


def kernel_metrics(params, z, n_tokens: int) -> "dict[str, float]":
    """Forward and backward time of each layer alone, keyed
    ``denoiser.<layer>.fwd_us`` and ``gradients.<layer>.bwd_us`` with
    ``<layer>`` one of enc_ca, dec_ca, dec_sa."""
    rng = np.random.default_rng(0)
    emb = rng.normal(0.0, 1.0, size=(n_tokens, params.dim))
    d_eps = rng.standard_normal(z.shape)
    out = {}
    for layer in denoiser.workspace(params):
        tag = f"{layer.kind[:3]}_{layer.attn_type.lower()}"
        stack = [layer]
        cache = denoiser.forward_cache(z, emb, stack)
        d_attn = [rng.standard_normal(cache.layers[0].attn.shape)]
        out[f"denoiser.{tag}.fwd_us"] = _per_call_us(
            lambda: denoiser.forward_cache(z, emb, stack))
        out[f"gradients.{tag}.bwd_us"] = _per_call_us(
            lambda: gradients.backprop(cache, d_attn=d_attn, d_eps=d_eps))
    return out


def _declared_metrics(trace_on: bool) -> "list[dict]":
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer"] if trace_on else spec["end_to_end"]


def run(args, out_root: str) -> int:
    workload = WORKLOADS[args.workload](args.seed, out_root)
    if args.setup_only:
        return 0
    workload.warmup()
    # Later operations can raise the process's peak by a few MB as the heap
    # fragments, by an amount that depends on the run's length; the peak of
    # a fresh process through one operation does not.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()

    attempted = failed = 0
    correct = True
    part_s: "list[float]" = []
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < args.seconds:
        j = attempted
        attempted += 1
        try:
            with tracer.active() if tracer else contextlib.nullcontext():
                out, parts = workload.run(j)
        except Exception:  # the program failed: count it, keep measuring
            failed += 1
            traceback.print_exc()
            continue
        try:
            failures = workload.check(j, out)
        except Exception:
            failures = ["check raised:\n" + traceback.format_exc()]
        if failures:
            failed += 1
            correct = False
            for msg in failures:
                print(f"op {j}: CHECK FAILED: {msg}", file=sys.stderr)
            continue
        part_s.extend(parts)
        seconds = sum(parts)
        print(f"op {j}: {seconds:.4f} s in program, "
              f"{workload.work / seconds:.2f} {workload.work_unit}/s", file=sys.stderr)

    if not part_s:
        print("error: no operation succeeded", file=sys.stderr)
        return 1

    absent: "dict[str, str]" = {}
    if tracer is None:
        values = {
            "op_s": workload.parts * float(np.quantile(part_s, PART_QUANTILE)),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        tracer.uninstall()
        values = tracer.metrics(attempted)
        absent = {metric: tracer.absent[key]
                  for metric, (key, _) in spans.SPAN_METRICS.items()
                  if key in tracer.absent}
        values.update(kernel_metrics(*workload.kernel_inputs()))

    metrics = {}
    for m in _declared_metrics(bool(args.trace)):
        if m["name"] == "setup_s":
            continue  # measured by run.py
        entry = {"value": values.get(m["name"]), "unit": m["unit"]}
        if entry["value"] is None:
            entry["absent"] = absent.get(m["name"], "not measured by this run")
        metrics[m["name"]] = entry
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    out_parent = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_parent, exist_ok=True)
    out_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_parent)
    try:
        return run(args, out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(out_parent)


if __name__ == "__main__":
    sys.exit(main())
