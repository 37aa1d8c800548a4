"""Per-module spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces module-level functions of ``attnctl`` by timing
wrappers. A function is looked up by name in its defining module, and every
``attnctl`` module attribute bound to that same function object is swapped,
so calls through ``from .x import f`` bindings and through ``module.f`` are
both seen. A name that no longer exists is reported as absent, not as an
error.

Spans nest: each wrapper pushes a frame, and a span's self time is its
duration minus the time of the spans it encloses. A wrapper entered while a
span of the same key is open (``ddim_step`` calling ``predict_clean``, or
``write_csv`` calling ``atomic_write_text``) is folded into the outer span.
Spans are recorded only inside ``Tracer.active()``, so the benchmark's own
checks and warm-up do not count.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


def _n_iter(_args, result) -> int:
    return int(result.n_iter)


def _text_bytes(args, _result) -> int:
    return len(args[1].encode())


@dataclass(frozen=True)
class Span:
    """One traced key: the functions it covers and the counter it keeps."""

    key: str
    module: str
    names: "tuple[str, ...]"
    counter: "tuple[str, object] | None" = None   # (metric suffix, fn)
    timed: bool = True                              # False: count only


SPANS = (
    Span("denoiser.forward_cache", "attnctl.denoiser", ("forward_cache",)),
    Span("denoiser.readout_eps", "attnctl.denoiser", ("readout_eps",)),
    Span("denoiser.ddim", "attnctl.denoiser",
         ("ddim_add_noise", "ddim_step", "predict_clean")),
    Span("denoiser.record_from_maps", "attnctl.denoiser", ("record_from_maps",)),
    Span("gradients.backprop", "attnctl.gradients", ("backprop",)),
    Span("learning.run", "attnctl.learning", ("run_semantic_learning",)),
    Span("learning.attn_loss", "attnctl.learning", ("_attn_loss_and_grad",)),
    Span("learning.joint_sample", "attnctl.learning", ("joint_sample",)),
    Span("synthesis.run", "attnctl.synthesis", ("run_synthesis",)),
    Span("synthesis.box_loss", "attnctl.synthesis", ("_box_loss_terms",)),
    Span("synthesis.box_grad", "attnctl.synthesis", ("_box_loss_grads",)),
    Span("synthesis.mask_maps", "attnctl.synthesis", ("_mask_maps",)),
    Span("synthesis.leakage", "attnctl.synthesis", ("_leakage_from_maps",)),
    Span("refine.ca_masks", "attnctl.refine", ("compute_ca_masks",)),
    Span("refine.box_blur", "attnctl.refine", ("box_blur",)),
    Span("refine.kmeans", "attnctl.refine", ("kmeans_self_attention",),
         ("iters", _n_iter)),
    Span("refine.assign", "attnctl.refine", ("assign_clusters",)),
    Span("kkt.oracle_report", "attnctl.kkt", ("oracle_report",)),
    Span("kkt.descent", "attnctl.kkt", ("projected_descent",),
         ("iters", _n_iter)),
    Span("scenario.generate", "attnctl.scenario", ("generate_scenario",)),
    Span("scenario.pca", "attnctl.scenario", ("pca_project",)),
    Span("scenario.metrics", "attnctl.scenario",
         ("leakage_mass", "argmax_iou_single")),
    Span("harness.run", "attnctl.harness", ("run_experiment",)),
    Span("fileio.write", "attnctl.fileio",
         ("write_csv", "write_json", "atomic_write_text")),
    Span("fileio.bytes", "attnctl.fileio", ("atomic_write_text",),
         ("bytes", _text_bytes), timed=False),
    Span("cli.report", "attnctl.harness", ("report",)),
)

# Reported metric -> (span key, quantity). Quantities: "ms" is inclusive
# time, "self_ms" time not covered by enclosed spans, "calls" outermost
# calls; a counter suffix reports that counter. All are per operation.
SPAN_METRICS = {
    "denoiser.forward_cache.ms": ("denoiser.forward_cache", "ms"),
    "denoiser.forward_cache.calls": ("denoiser.forward_cache", "calls"),
    "denoiser.readout_eps.ms": ("denoiser.readout_eps", "ms"),
    "denoiser.ddim.ms": ("denoiser.ddim", "ms"),
    "denoiser.record_from_maps.ms": ("denoiser.record_from_maps", "ms"),
    "gradients.backprop.ms": ("gradients.backprop", "ms"),
    "gradients.backprop.calls": ("gradients.backprop", "calls"),
    "learning.self_ms": ("learning.run", "self_ms"),
    "learning.attn_loss.ms": ("learning.attn_loss", "ms"),
    "learning.joint_sample.ms": ("learning.joint_sample", "ms"),
    "synthesis.self_ms": ("synthesis.run", "self_ms"),
    "synthesis.box_loss.ms": ("synthesis.box_loss", "ms"),
    "synthesis.box_grad.ms": ("synthesis.box_grad", "ms"),
    "synthesis.mask_maps.ms": ("synthesis.mask_maps", "ms"),
    "synthesis.leakage.ms": ("synthesis.leakage", "ms"),
    "refine.ca_masks.ms": ("refine.ca_masks", "ms"),
    "refine.box_blur.ms": ("refine.box_blur", "ms"),
    "refine.kmeans.ms": ("refine.kmeans", "ms"),
    "refine.kmeans.iters": ("refine.kmeans", "iters"),
    "refine.assign.ms": ("refine.assign", "ms"),
    "kkt.oracle_report.ms": ("kkt.oracle_report", "ms"),
    "kkt.descent.ms": ("kkt.descent", "ms"),
    "kkt.descent.calls": ("kkt.descent", "calls"),
    "kkt.descent.iters": ("kkt.descent", "iters"),
    "scenario.generate.ms": ("scenario.generate", "ms"),
    "scenario.pca.ms": ("scenario.pca", "ms"),
    "scenario.metrics.ms": ("scenario.metrics", "ms"),
    "harness.self_ms": ("harness.run", "self_ms"),
    "fileio.write.ms": ("fileio.write", "ms"),
    "fileio.write.calls": ("fileio.write", "calls"),
    "fileio.bytes": ("fileio.bytes", "bytes"),
    "cli.report.ms": ("cli.report", "ms"),
}


class Tracer:
    """Timing wrappers around ``attnctl`` functions, with per-key totals."""

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.absent: "dict[str, str]" = {}
        self.seconds: "dict[str, float]" = defaultdict(float)
        self.self_seconds: "dict[str, float]" = defaultdict(float)
        self.calls: "dict[str, int]" = defaultdict(int)
        self.counts: "dict[tuple[str, str], int]" = defaultdict(int)
        self._child_seconds: "list[float]" = []   # one entry per open span
        self._open: "set[str]" = set()
        self._recording = False
        self._patched: "list[tuple[object, str, object]]" = []

    @contextlib.contextmanager
    def active(self):
        """Record spans only inside this block."""
        self._recording = True
        try:
            yield
        finally:
            self._recording = False

    def install(self) -> None:
        for span in self.spans:
            module = importlib.import_module(span.module)
            missing = [n for n in span.names if not callable(getattr(module, n, None))]
            if missing:
                self.absent[span.key] = f"{span.module} has no {', '.join(missing)}"
                continue
            for name in span.names:
                original = getattr(module, name)
                self._replace(original, self._wrap(span, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _replace(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "attnctl" and not mod_name.startswith("attnctl."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _wrap(self, span: Span, fn):
        key = span.key

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            if not span.timed or key in self._open:
                # Count only, or folded into the enclosing span of this key.
                result = fn(*args, **kwargs)
            else:
                self._child_seconds.append(0.0)
                self._open.add(key)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    child = self._child_seconds.pop()
                    self._open.discard(key)
                    self.seconds[key] += elapsed
                    self.self_seconds[key] += elapsed - child
                    self.calls[key] += 1
                    if self._child_seconds:
                        self._child_seconds[-1] += elapsed
            if span.counter is not None:
                suffix, count = span.counter
                self.counts[(key, suffix)] += count(args, result)
            return result

        return wrapper

    def metrics(self, n_ops: int) -> "dict[str, float | None]":
        """Per-operation values of every span metric; None when absent."""
        out: "dict[str, float | None]" = {}
        for metric, (key, quantity) in SPAN_METRICS.items():
            if key in self.absent:
                out[metric] = None
            elif quantity == "ms":
                out[metric] = 1e3 * self.seconds[key] / n_ops
            elif quantity == "self_ms":
                out[metric] = 1e3 * self.self_seconds[key] / n_ops
            elif quantity == "calls":
                out[metric] = self.calls[key] / n_ops
            else:
                out[metric] = self.counts[(key, quantity)] / n_ops
        return out
