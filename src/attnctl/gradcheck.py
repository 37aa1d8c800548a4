"""Central finite-difference verification of every hand-written gradient.

Each check builds a seeded 4x4 scenario, evaluates one loss as a pure function
of the quantity being differentiated (token embeddings, latent grid, or value
projections), and compares the analytic gradient coordinate-by-coordinate
against (f(x+h) - f(x-h)) / 2h with h = 1e-5. Coordinates where both values
are below 1e-10 in magnitude count as matching.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BinaryMask
from .denoiser import default_params, forward_cache, readout_eps, toy_schedule, workspace
from .gradients import backprop
from .learning import (
    InstanceSet,
    LearningConfig,
    SampleDraw,
    _attn_loss_and_grad,
    _gated_masks,
    _rec_loss_and_grad,
    total_learning_loss,
)
from .sapass import INBOX
from .synthesis import (
    BoxSpec,
    ScheduleParams,
    SynthesisConfig,
    _box_loss_grads,
    _box_loss_terms,
    _forward,
    _MaskSet,
    _pass_energies,
    _SamplingRun,
    alpha_decay,
    instance_masks_from_boxes,
)

FD_STEP = 1e-5
REL_TOL = 1e-5
ABS_FLOOR = 1e-10


@dataclass
class GradCheck:
    name: str
    max_rel: float
    max_abs: float

    @property
    def passed(self) -> bool:
        return self.max_rel <= REL_TOL


def central_diff(f, x: np.ndarray) -> np.ndarray:
    """Per-coordinate central finite difference of a scalar function."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + FD_STEP
        fp = f()
        x[idx] = orig - FD_STEP
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * FD_STEP)
    return g


def compare(name: str, analytic: np.ndarray, numeric: np.ndarray) -> GradCheck:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    rel = np.where(denom > ABS_FLOOR, diff / np.where(denom == 0.0, 1.0, denom), 0.0)
    return GradCheck(name=name, max_rel=float(rel.max()), max_abs=float(diff.max()))


@dataclass
class _Fixture:
    z: np.ndarray
    emb: np.ndarray
    eps: np.ndarray
    layers: list
    instances: InstanceSet
    draw: SampleDraw
    masks: list          # per-instance resolution-indexed box masks
    resolutions: list
    groups: list
    config: LearningConfig
    syn: SynthesisConfig
    sched: ScheduleParams
    decay_step: int


def build_fixture(seed: int = 0) -> _Fixture:
    """A 4x4, 4-channel scenario with two quadrant instances."""
    rng = np.random.default_rng(seed)
    dim = 4
    params = default_params(dim, 4, 4, seed=seed + 1, init_scale=0.4)
    layers = workspace(params)
    z = rng.standard_normal((4, 4, dim))
    emb = rng.standard_normal((3, dim))
    eps = rng.standard_normal((4, 4, dim))

    top_left = np.zeros((4, 4), dtype=np.uint8)
    top_left[0:2, 0:2] = 1
    bottom_right = np.zeros((4, 4), dtype=np.uint8)
    bottom_right[2:4, 2:4] = 1
    instances = InstanceSet(
        (BinaryMask(top_left), BinaryMask(bottom_right)), (1, 2)
    )
    draw = SampleDraw((0, 1), BinaryMask(top_left | bottom_right))

    boxes = [BoxSpec(0.0, 0.0, 0.5, 0.5), BoxSpec(0.5, 0.5, 1.0, 1.0)]
    resolutions = sorted({(l.height, l.width) for l in layers})
    masks = instance_masks_from_boxes(boxes, resolutions)
    groups = [[1], [2]]

    return _Fixture(
        z=z, emb=emb, eps=eps, layers=layers, instances=instances, draw=draw,
        masks=masks, resolutions=resolutions, groups=groups,
        config=LearningConfig(),
        syn=SynthesisConfig(),
        sched=ScheduleParams(),
        decay_step=2,
    )


def _learning_losses(fx: _Fixture, branch: str):
    """The learning loop's kernels at the fixture's current values: the
    forward cache, then (rec, d_eps) and (attn, d_attn)."""
    cache = forward_cache(fx.z, fx.emb, fx.layers)
    rec, d_eps = _rec_loss_and_grad(fx.eps, readout_eps(cache, cache.maps()),
                                    fx.draw.rec_weight)
    attn, d_attn = _attn_loss_and_grad(
        cache.maps(), _gated_masks(fx.layers, fx.instances.masks),
        fx.instances, fx.draw, branch, fx.config.alpha,
    )
    return cache, rec, d_eps, attn, d_attn


def _rec_value(fx: _Fixture) -> float:
    return _learning_losses(fx, "reward")[1]


def _attn_value(fx: _Fixture, branch: str) -> float:
    return _learning_losses(fx, branch)[3]


def _step_box_grads(fx: _Fixture, alpha_t: float):
    """The box-loss gradient as an optimizing synthesis step takes it
    (``synthesis._sampling_step``): the cache of the step's first pass,
    which keeps the in-box self-attention rows alone, and the gradient on
    it, whose self-attention part runs on the run's lanes."""
    run = _SamplingRun(emb=fx.emb, layers=fx.layers, groups=fx.groups,
                       masks=_MaskSet(fx.masks), resolutions=fx.resolutions, config=fx.syn,
                       sched=fx.sched, schedule=toy_schedule(fx.syn.total_steps),
                       refinement=None)
    cache, passes = _forward(run, fx.z, INBOX)
    maps = cache.maps()
    per_terms, _ = _box_loss_terms(fx.layers, maps, run.masks, fx.groups, alpha_t, fx.syn,
                                   _pass_energies(passes))
    return cache, _box_loss_grads(fx.layers, maps, run.masks, fx.groups, alpha_t, fx.syn,
                                  per_terms, scratch=run.scratch)


def run_gradcheck(seed: int = 0) -> "list[GradCheck]":
    fx = build_fixture(seed)
    cfg = fx.config
    results = []

    # --- reward attention loss wrt embeddings -----------------------------
    cache, _, _, attn, d_attn = _learning_losses(fx, "reward")
    analytic = backprop(cache, d_attn=d_attn, d_eps=None).d_emb

    results.append(compare("reward_attn_wrt_embeddings", analytic,
                           central_diff(lambda: _attn_value(fx, "reward"), fx.emb)))

    # --- penalty attention loss wrt embeddings ----------------------------
    cache, _, _, attn, d_attn = _learning_losses(fx, "penalty")
    analytic = backprop(cache, d_attn=d_attn, d_eps=None).d_emb

    results.append(compare("penalty_attn_wrt_embeddings", analytic,
                           central_diff(lambda: _attn_value(fx, "penalty"), fx.emb)))

    # --- masked reconstruction wrt embeddings -----------------------------
    cache, rec, d_eps, _, _ = _learning_losses(fx, "reward")
    analytic = backprop(cache, d_attn=None, d_eps=d_eps).d_emb

    results.append(compare("masked_rec_wrt_embeddings", analytic,
                           central_diff(lambda: _rec_value(fx), fx.emb)))

    # --- weighted stage-one total wrt embeddings --------------------------
    cache, rec, d_eps, attn, d_attn = _learning_losses(fx, "penalty")
    upstream = [None if g is None else cfg.lambda_attn * g for g in d_attn]
    analytic = backprop(cache, d_attn=upstream,
                        d_eps=cfg.lambda_rec * d_eps).d_emb

    def total_value():
        return total_learning_loss(_rec_value(fx), _attn_value(fx, "penalty"), cfg)

    results.append(compare("stage1_total_wrt_embeddings", analytic,
                           central_diff(total_value, fx.emb)))

    # --- combined box-control loss wrt latent ------------------------------
    alpha_t = alpha_decay(fx.decay_step, fx.sched, fx.syn.bound_steps)
    cache, d_attn = _step_box_grads(fx, alpha_t)
    analytic = backprop(cache, d_attn=d_attn, d_eps=None).d_z

    def combined_value():  # whole maps: apart from the path under test
        m = forward_cache(fx.z, fx.emb, fx.layers).maps()
        return _box_loss_terms(fx.layers, m, fx.masks, fx.groups, alpha_t, fx.syn)[1]

    results.append(compare("combined_box_wrt_latent", analytic,
                           central_diff(combined_value, fx.z)))

    # --- combined box-control loss wrt embeddings -------------------------
    analytic = backprop(cache, d_attn=d_attn, d_eps=None).d_emb
    results.append(compare("combined_box_wrt_embeddings", analytic,
                           central_diff(combined_value, fx.emb)))

    # --- masked reconstruction wrt value projections (refinement stage) ---
    cache, rec, d_eps, _, _ = _learning_losses(fx, "reward")
    res = backprop(cache, d_attn=None, d_eps=d_eps)
    for li in range(len(fx.layers)):
        numeric = central_diff(lambda: _rec_value(fx), fx.layers[li].wv)
        results.append(compare(f"masked_rec_wrt_value_proj_{li}",
                               res.d_wv[li], numeric))

    return results


def format_results(results: "list[GradCheck]") -> str:
    lines = []
    for r in results:
        status = "ok" if r.passed else "FAIL"
        lines.append(
            f"{r.name:35s} max_rel={r.max_rel:.3e} max_abs={r.max_abs:.3e} [{status}]"
        )
    worst = max(r.max_rel for r in results)
    verdict = "all gradients verified" if all(r.passed for r in results) \
        else "GRADIENT MISMATCH"
    lines.append(f"worst relative error {worst:.3e} (tolerance {REL_TOL:g}) - {verdict}")
    return "\n".join(lines)
