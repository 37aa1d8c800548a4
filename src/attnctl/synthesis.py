"""Stage two of the engine: box-controlled synthesis.

A reverse sampling loop steers instance tokens into user-supplied boxes. For
the first ``bound_steps`` sampling steps the latent is nudged down the
gradient of a combined cross/self-attention loss whose penalty share decays
linearly-then-cosine; every step, attention masking suppresses out-of-box
interactions in the maps used for the noise readout; in the remaining steps
the control masks are periodically refined from the attention itself.

Control losses and their latent gradients are always evaluated on the raw
(unmasked) maps — the masked maps have zeros exactly where the penalty term
needs support, which would kill the gradient.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CROSS,
    DECODER,
    SELF,
    AttentionRecord,
    BinaryMask,
    gated_layers,
    resample_mask_nearest,
)
from .denoiser import (
    DenoiserParams,
    NoiseSchedule,
    TokenEmbedding,
    _token_matrix,
    ddim_step,
    forward_cache,
    predict_clean,
    readout_eps,
    record_from_maps,
    toy_schedule,
    workspace,
)
from .errors import ConfigurationError, DegenerateInputWarning, DivergenceError, ShapeError
from .fileio import write_csv
from . import refine


@dataclass(frozen=True)
class BoxSpec:
    """An axis-aligned box in normalized [0, 1] image coordinates."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        for name in ("x0", "y0", "x1", "y1"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"BoxSpec.{name}: must lie in [0, 1]")
            object.__setattr__(self, name, v)
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ConfigurationError("BoxSpec: need x0 < x1 and y0 < y1")


def rasterize_box(box: BoxSpec, height: int, width: int) -> BinaryMask:
    """Mark every cell whose center falls inside the box (closed interval,
    so boxes aligned to cell edges keep their boundary cells)."""
    cy = (np.arange(height) + 0.5) / height
    cx = (np.arange(width) + 0.5) / width
    rows = (box.y0 <= cy) & (cy <= box.y1)
    cols = (box.x0 <= cx) & (cx <= box.x1)
    return BinaryMask((rows[:, None] & cols[None, :]).astype(np.uint8))


MaskSet = "dict[tuple[int, int], BinaryMask]"


def instance_masks_from_boxes(boxes: "list[BoxSpec]",
                              resolutions: "list[tuple[int, int]]") -> "list[dict]":
    """Rasterize each box at every layer resolution."""
    return [
        {(h, w): rasterize_box(box, h, w) for (h, w) in resolutions}
        for box in boxes
    ]


def masks_at_all_resolutions(mask: BinaryMask,
                             resolutions: "list[tuple[int, int]]") -> "dict":
    """Carry one mask (e.g. a refined one) to every layer resolution."""
    return {(h, w): resample_mask_nearest(mask, h, w) for (h, w) in resolutions}


@dataclass
class ScheduleParams:
    """Penalty-weight decay: linear to alpha_min, then cosine to alpha_final."""

    alpha_max: float = 0.5
    alpha_min: float = 0.2
    alpha_final: float = 0.1
    linear_end: int = 3     # last step of the linear phase
    horizon: int = 15       # total decayed steps (the optimization phase)

    def validate(self) -> None:
        if not 0.0 < self.alpha_final <= self.alpha_min <= self.alpha_max:
            raise ConfigurationError(
                "need 0 < alpha_final <= alpha_min <= alpha_max"
            )
        if not 1 <= self.linear_end < self.horizon:
            raise ConfigurationError("need 1 <= linear_end < horizon")


def alpha_decay(t: int, params: ScheduleParams) -> float:
    """Penalty weight at optimization step t (1-based).

    Steps 1..linear_end interpolate alpha_max -> alpha_min linearly; steps
    linear_end..horizon follow a half-cosine from alpha_min to alpha_final.
    """
    params.validate()
    t = int(t)
    if not 1 <= t <= params.horizon:
        raise ValueError(f"step {t} outside decay range [1, {params.horizon}]")
    if t == 1:
        return params.alpha_max
    if t <= params.linear_end:
        frac = (t - 1) / (params.linear_end - 1)
        return params.alpha_max + frac * (params.alpha_min - params.alpha_max)
    phase = np.pi * (t - params.linear_end) / (params.horizon - params.linear_end)
    weight = (1.0 + np.cos(phase)) / 2.0
    return params.alpha_final + weight * (params.alpha_min - params.alpha_final)


@dataclass
class SynthesisConfig:
    """Scalars steering the box-controlled sampling loop."""

    beta: float = 0.05          # latent step size
    lambda_sa: float = 0.5
    lambda_ca: float = 1.5
    bound_steps: int = 15       # latent-optimization phase length
    update_interval: int = 5    # mask-refinement cadence after the phase
    total_steps: int = 50
    use_masking: bool = True
    use_out_of_box: bool = True  # penalty (out-of-box) term on/off
    seed: int = 0

    def validate(self) -> None:
        if self.beta < 0.0:
            raise ConfigurationError("beta: must be >= 0")
        if self.lambda_sa < 0.0 or self.lambda_ca < 0.0:
            raise ConfigurationError("lambda_sa/lambda_ca: must be >= 0")
        if not 1 <= self.bound_steps <= self.total_steps:
            raise ConfigurationError("need 1 <= bound_steps <= total_steps")
        if self.total_steps < 2:
            raise ConfigurationError("total_steps: must be >= 2")
        if self.update_interval < 0:
            raise ConfigurationError("update_interval: must be >= 0")
        if self.seed < 0:
            raise ConfigurationError("seed: must be >= 0")


# ---------------------------------------------------------------------------
# Energies and scores
# ---------------------------------------------------------------------------

def _ca_energies(attn: np.ndarray, m_flat: np.ndarray, group) -> "tuple[float, float]":
    sub = attn[:, group]
    fg = float(((m_flat[:, None] * sub) ** 2).sum())
    bg = float((((1.0 - m_flat)[:, None] * sub) ** 2).sum())
    return fg, bg


def _sa_energies(attn: np.ndarray, m_flat: np.ndarray) -> "tuple[float, float]":
    # The in-box rows are squared once: (a m)^2 = a^2 m for m in {0, 1}.
    sq = attn[m_flat > 0.5, :]
    np.square(sq, out=sq)
    part = sq * m_flat[None, :]
    fg = float(part.sum())
    np.multiply(sq, (1.0 - m_flat)[None, :], out=part)
    bg = float(part.sum())
    return fg, bg


def fg_bg_energies(record: AttentionRecord, layer_index: int, mask: BinaryMask,
                   group: "list[int]") -> "tuple[float, float]":
    """In-box and out-of-box squared attention energy for one instance at one
    layer. Cross attention reads the group's token columns; self attention
    reads the rows of in-box source pixels."""
    if not 0 <= layer_index < len(record.layers):
        raise ShapeError(f"layer index {layer_index} out of range")
    layer = record.layers[layer_index]
    if (mask.height, mask.width) != (layer.height, layer.width):
        raise ShapeError(
            f"mask {mask.height}x{mask.width} does not match layer "
            f"{layer.height}x{layer.width}"
        )
    m = mask.flat()
    if layer.attn_type == CROSS:
        if not group:
            raise ConfigurationError("token group must be nonempty")
        for token in group:
            if not 0 <= token < layer.amap.cols:
                raise ConfigurationError(f"token id {token} absent from record")
        return _ca_energies(layer.amap.weights, m, list(group))
    return _sa_energies(layer.amap.weights, m)


def mean_energies(fg_values: "list[float]", bg_values: "list[float]") -> "tuple[float, float]":
    """Average per-layer energies; both lists must be nonempty and aligned."""
    if not fg_values or len(fg_values) != len(bg_values):
        raise ConfigurationError("need equally many fg and bg energies (>= 1)")
    return float(np.mean(fg_values)), float(np.mean(bg_values))


def reward_box_score(fg_bar: float, bg_bar: float) -> float:
    """(1 - fg/(fg+bg))^2: squared out-of-box share of the energy."""
    if fg_bar < 0.0 or bg_bar < 0.0:
        raise ValueError("energies must be >= 0")
    total = fg_bar + bg_bar
    if total == 0.0:
        warnings.warn("zero attention energy: reward score defaults to 0",
                      DegenerateInputWarning, stacklevel=2)
        return 0.0
    return float((bg_bar / total) ** 2)


def penalty_box_score(bg_bar: float) -> float:
    """log(1 + bg): direct pressure on absolute out-of-box energy."""
    if bg_bar < 0.0:
        raise ValueError("energy must be >= 0")
    return float(np.log1p(bg_bar))


def _score_derivs(fg: float, bg: float) -> "tuple[float, float]":
    """d reward_box_score / d(fg, bg). Zero-energy convention: both zero."""
    s = fg + bg
    if s == 0.0:
        return 0.0, 0.0
    return -2.0 * bg * bg / s ** 3, 2.0 * bg * fg / s ** 3


@dataclass
class _InstanceTerms:
    fg_ca: "list[float]" = field(default_factory=list)
    bg_ca: "list[float]" = field(default_factory=list)
    fg_sa: "list[float]" = field(default_factory=list)
    bg_sa: "list[float]" = field(default_factory=list)
    loss: float = 0.0


def _box_loss_terms(layers, maps, masks, groups, alpha_t: float,
                    config: SynthesisConfig) -> "tuple[list[_InstanceTerms], float]":
    """Per-instance energies and scores, and their squared sum. The kernels
    here take the layer objects (``_LayerWork`` in the loops,
    ``LayerAttention`` from a record) for their tags and extents, and the
    maps as raw arrays in layer order."""
    ca_idx = gated_layers(layers, CROSS)
    sa_idx = gated_layers(layers, SELF)
    if not ca_idx:
        raise ConfigurationError("record has no decoder cross-attention layer")
    per_instance: "list[_InstanceTerms]" = []
    total = 0.0
    for i, group in enumerate(groups):
        terms = _InstanceTerms()
        for li in ca_idx:
            m = masks[i][(layers[li].height, layers[li].width)].flat()
            fg, bg = _ca_energies(maps[li], m, list(group))
            terms.fg_ca.append(fg)
            terms.bg_ca.append(bg)
        for li in sa_idx:
            m = masks[i][(layers[li].height, layers[li].width)].flat()
            fg, bg = _sa_energies(maps[li], m)
            terms.fg_sa.append(fg)
            terms.bg_sa.append(bg)

        loss_i = 0.0
        fg_c, bg_c = mean_energies(terms.fg_ca, terms.bg_ca)
        part_ca = reward_box_score(fg_c, bg_c)
        if config.use_out_of_box:
            part_ca += alpha_t * penalty_box_score(bg_c)
        loss_i += config.lambda_ca * part_ca
        if sa_idx:
            fg_s, bg_s = mean_energies(terms.fg_sa, terms.bg_sa)
            part_sa = reward_box_score(fg_s, bg_s)
            if config.use_out_of_box:
                part_sa += alpha_t * penalty_box_score(bg_s)
            loss_i += config.lambda_sa * part_sa
        terms.loss = loss_i
        per_instance.append(terms)
        total += loss_i ** 2
    return per_instance, total


def _box_loss_grads(layers, maps, masks, groups, alpha_t: float,
                    config: SynthesisConfig,
                    per_instance: "list[_InstanceTerms]") -> "list[np.ndarray | None]":
    """dL/dA per layer for L = sum_i loss_i^2, given precomputed terms."""
    ca_idx = gated_layers(layers, CROSS)
    sa_idx = gated_layers(layers, SELF)
    d_attn: "list[np.ndarray | None]" = [None] * len(layers)

    def _grad(li):  # layer li's gradient, accumulated over instances
        if d_attn[li] is None:
            d_attn[li] = np.zeros_like(maps[li])
        return d_attn[li]

    for i, group in enumerate(groups):
        terms = per_instance[i]
        outer = 2.0 * terms.loss  # d(total)/d(loss_i)

        fg_c, bg_c = mean_energies(terms.fg_ca, terms.bg_ca)
        dr_fg, dr_bg = _score_derivs(fg_c, bg_c)
        db = dr_bg + (alpha_t / (1.0 + bg_c) if config.use_out_of_box else 0.0)
        cf = outer * config.lambda_ca * dr_fg / len(ca_idx)
        cb = outer * config.lambda_ca * db / len(ca_idx)
        for li in ca_idx:
            m = masks[i][(layers[li].height, layers[li].width)].flat()
            grad = _grad(li)
            for token in group:
                col = maps[li][:, token]
                grad[:, token] += cf * 2.0 * m * col + cb * 2.0 * (1.0 - m) * col

        if sa_idx:
            fg_s, bg_s = mean_energies(terms.fg_sa, terms.bg_sa)
            dr_fg, dr_bg = _score_derivs(fg_s, bg_s)
            db = dr_bg + (alpha_t / (1.0 + bg_s) if config.use_out_of_box else 0.0)
            cf = outer * config.lambda_sa * dr_fg / len(sa_idx)
            cb = outer * config.lambda_sa * db / len(sa_idx)
            for li in sa_idx:
                m = masks[i][(layers[li].height, layers[li].width)].flat()
                rows = m > 0.5
                block = maps[li][rows, :]
                block *= cf * 2.0 * m[None, :] + cb * 2.0 * (1.0 - m)[None, :]
                _grad(li)[rows, :] += block
    return d_attn


def combined_attn_loss(record: AttentionRecord, masks, groups, t: int,
                       sched: ScheduleParams,
                       config: SynthesisConfig) -> "tuple[list[float], float]":
    """Per-instance combined scores and their squared sum at decay step t.

    masks: one resolution-indexed mask dict per instance (see
    instance_masks_from_boxes); groups: one token-id list per instance.
    """
    config.validate()
    if len(masks) != len(groups):
        raise ConfigurationError("need one mask set and one token group per instance")
    alpha_t = alpha_decay(t, sched)
    per_instance, total = _box_loss_terms(record.layers, record.maps(), masks,
                                          groups, alpha_t, config)
    return [p.loss for p in per_instance], total


def latent_opt_step(z: np.ndarray, grad: np.ndarray, beta: float) -> np.ndarray:
    """One explicit gradient step on the latent."""
    z = np.asarray(z, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if z.shape != grad.shape:
        raise ShapeError(f"latent shape {z.shape} != gradient shape {grad.shape}")
    if beta < 0.0:
        raise ConfigurationError("beta: must be >= 0")
    if not np.all(np.isfinite(grad)):
        raise DivergenceError("latent gradient contains non-finite values")
    return z - beta * grad


# ---------------------------------------------------------------------------
# Attention masking
# ---------------------------------------------------------------------------

def _mask_maps(layers, maps, masks, groups) -> "list[np.ndarray]":
    """Suppress out-of-box attention in every layer's map.

    Cross attention: zero each instance token's weight at pixels outside its
    mask. Self attention: zero attention from in-box pixels to out-of-box
    targets. Rows are renormalized; a fully suppressed row falls back to
    uniform over its permitted targets (diagnostic warning).
    """
    out = []
    for layer, attn in zip(layers, maps):
        h, w = layer.height, layer.width
        attn = attn.copy()
        if layer.attn_type == CROSS:
            for i, group in enumerate(groups):
                m = masks[i][(h, w)].flat()
                outside = m < 0.5
                for token in group:
                    if token >= attn.shape[1]:
                        raise ConfigurationError(
                            f"token id {token} absent from record"
                        )
                    attn[outside, token] = 0.0
        else:
            # In-box rows may reach the union of the boxes containing them.
            inside = np.array([masks[i][(h, w)].flat() > 0.5
                               for i in range(len(groups))],
                              dtype=bool).reshape(len(groups), attn.shape[0])
            for rows, boxes_in in _rows_by_boxes(inside):
                block = attn[rows]
                np.copyto(block, 0.0, where=~inside[boxes_in].any(axis=0))
                attn[rows] = block
        sums = attn.sum(axis=1, keepdims=True)
        dead = sums[:, 0] <= 0.0
        if np.any(dead):
            warnings.warn(
                "attention masking zeroed entire rows; using uniform fallback",
                DegenerateInputWarning, stacklevel=2,
            )
            if layer.attn_type == CROSS:
                attn[dead, :] = 1.0 / attn.shape[1]
            else:
                for r in np.nonzero(dead)[0]:
                    boxes_in = inside[:, r]
                    ok = (inside[boxes_in].any(axis=0) if boxes_in.any()
                          else np.ones(attn.shape[1], dtype=bool))
                    attn[r, ok] = 1.0 / ok.sum()
            sums = attn.sum(axis=1, keepdims=True)
        attn /= sums
        out.append(attn)
    return out


def _rows_by_boxes(inside: np.ndarray):
    """Group the pixels that lie in at least one box by the set of boxes
    containing them; ``inside`` is (boxes, pixels). Yields each group's pixel
    indices and its boolean box selector, one group per distinct set."""
    if inside.shape[0] == 0:
        return
    keys = np.ascontiguousarray(inside.T).view(np.dtype((np.void, inside.shape[0])))
    _, first, group_of = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    for g, pixel in enumerate(first):
        boxes_in = inside[:, pixel]
        if boxes_in.any():
            yield np.nonzero(group_of.ravel() == g)[0], boxes_in


def apply_attention_masking(record: AttentionRecord, masks, groups) -> AttentionRecord:
    """Masked copy of a record; idempotent for fixed masks and groups."""
    if len(masks) != len(groups):
        raise ConfigurationError("need one mask set and one token group per instance")
    masked = _mask_maps(record.layers, record.maps(), masks, groups)
    return record_from_maps(record.layers, masked)


def _leakage_from_maps(layers, maps, masks, groups) -> "list[float]":
    """Off-mask share of each instance's token attention, averaged over
    decoder cross-attention layers; 1.0 for zero total mass."""
    ca_idx = gated_layers(layers, CROSS)
    leaks = []
    for i, group in enumerate(groups):
        vals = []
        for li in ca_idx:
            m = masks[i][(layers[li].height, layers[li].width)].flat()
            col = maps[li][:, list(group)].sum(axis=1)
            tot = float(col.sum())
            if tot <= 0.0:
                warnings.warn("zero token attention mass; leakage defaults to 1",
                              DegenerateInputWarning, stacklevel=2)
                vals.append(1.0)
            else:
                vals.append(float((col * (1.0 - m)).sum()) / tot)
        leaks.append(float(np.mean(vals)))
    return leaks


# ---------------------------------------------------------------------------
# The sampling loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepMetrics:
    step: int                     # 1-based sampling step
    t: int                        # schedule level consumed by this step
    alpha_t: float                # penalty weight used for the reported loss
    per_instance: "tuple[float, ...]"
    total: float
    total_after: float            # recomputed after the latent step (== total
                                  # outside the optimization phase)
    leakage: "tuple[float, ...]"


@dataclass
class SynthesisResult:
    z_final: np.ndarray
    steps: "list[StepMetrics]"
    masks: "list[dict]"           # final control masks per instance
    refined: bool                 # True once refinement replaced a box mask


def steps_header(n_instances: int) -> "tuple[str, ...]":
    cols = ["step", "t", "alpha"]
    cols += [f"loss_{i}" for i in range(n_instances)]
    cols += ["total", "total_after"]
    cols += [f"leakage_{i}" for i in range(n_instances)]
    return tuple(cols)


def write_steps_csv(steps: "list[StepMetrics]", path: str) -> None:
    if not steps:
        raise ConfigurationError("no step metrics to write")
    n = len(steps[0].per_instance)
    rows = []
    for s in steps:
        rows.append((s.step, s.t, s.alpha_t, *s.per_instance, s.total,
                     s.total_after, *s.leakage))
    write_csv(path, steps_header(n), rows)


def default_groups(tokens: "list[TokenEmbedding]", n_instances: int) -> "list[list[int]]":
    """One singleton group per instance: the learnable token ids in order."""
    ids = [t.token_id for t in tokens if t.learnable]
    if len(ids) < n_instances:
        raise ConfigurationError(
            f"{n_instances} instances but only {len(ids)} learnable tokens"
        )
    return [[ids[i]] for i in range(n_instances)]


def run_synthesis(tokens: "list[TokenEmbedding]", params: DenoiserParams,
                  boxes: "list[BoxSpec]", config: SynthesisConfig,
                  sched: ScheduleParams | None = None,
                  schedule: NoiseSchedule | None = None,
                  groups: "list[list[int]] | None" = None,
                  refinement: "refine.RefinementConfig | None" = None,
                  initial_latent: np.ndarray | None = None) -> SynthesisResult:
    """Run the full box-controlled reverse process.

    Returns the predicted clean latent, per-step metrics, and the final
    control masks. Steps 1..bound_steps carry one latent-optimization
    iteration each (decay step = sampling step); later steps apply masking
    only and refresh the masks every ``update_interval`` steps. Raises
    DivergenceError naming the step once the control loss or the latent
    goes non-finite.
    """
    config.validate()
    if sched is None:
        sched = ScheduleParams(horizon=config.bound_steps)
    sched.validate()
    if sched.horizon != config.bound_steps:
        raise ConfigurationError(
            "decay horizon must equal the optimization phase length"
        )
    if schedule is None:
        schedule = toy_schedule(config.total_steps)
    if schedule.total_steps != config.total_steps:
        raise ConfigurationError(
            f"schedule has {schedule.total_steps} levels, config expects {config.total_steps}"
        )
    if not boxes:
        raise ConfigurationError("need at least one box")
    if groups is None:
        groups = default_groups(tokens, len(boxes))
    if len(groups) != len(boxes):
        raise ConfigurationError("need one token group per box")

    emb = _token_matrix(tokens, params.dim)
    for group in groups:
        for token in group:
            if not 0 <= token < emb.shape[0]:
                raise ConfigurationError(f"token id {token} not among the embeddings")

    layers = workspace(params)
    resolutions = sorted({(l.height, l.width) for l in layers})
    gated_res = sorted({(l.height, l.width) for l in layers if l.kind == DECODER})
    masks = instance_masks_from_boxes(boxes, resolutions)
    for i, mset in enumerate(masks):
        for res in gated_res:
            if mset[res].is_empty():
                raise ConfigurationError(
                    f"box {i} rasterizes to an empty mask at {res[0]}x{res[1]}"
                )

    latent_shape = None
    for l in layers:  # full grid = finest layer resolution
        if latent_shape is None or l.height * l.width > latent_shape[0] * latent_shape[1]:
            latent_shape = (l.height, l.width)
    rng = np.random.default_rng(config.seed)
    if initial_latent is not None:
        z = np.asarray(initial_latent, dtype=np.float64).copy()
        if z.shape != (*latent_shape, params.dim):
            raise ShapeError(
                f"initial latent shape {z.shape} != {(*latent_shape, params.dim)}"
            )
    else:
        z = rng.standard_normal((*latent_shape, params.dim))

    steps: "list[StepMetrics]" = []
    refined_any = False
    prev_centers = None
    if refinement is not None:
        refinement.validate()
    n_clusters = 0
    if refinement is not None and refinement.enabled:
        n_clusters = refinement.clusters if refinement.clusters > 0 else len(boxes) + 1

    for step in range(1, config.total_steps + 1):
        t = config.total_steps - step
        optimizing = step <= config.bound_steps
        alpha_t = alpha_decay(min(step, sched.horizon), sched)

        cache = forward_cache(z, emb, layers)
        maps = [lc.attn for lc in cache.layers]
        per_terms, total = _box_loss_terms(layers, maps, masks, groups, alpha_t, config)
        per_losses = [p.loss for p in per_terms]
        total_after = total

        if optimizing and config.beta > 0.0:
            d_attn = _box_loss_grads(layers, maps, masks, groups, alpha_t,
                                     config, per_terms)
            from .gradients import backprop  # local import avoids cycle at module load
            res = backprop(cache, d_attn=d_attn, d_eps=None)
            z = latent_opt_step(z, res.d_z, config.beta)
            cache = forward_cache(z, emb, layers)
            maps = [lc.attn for lc in cache.layers]
            _, total_after = _box_loss_terms(layers, maps, masks, groups, alpha_t, config)
            if not np.isfinite(total_after):
                raise DivergenceError(f"synthesis loss non-finite at step {step}")

        leakage = _leakage_from_maps(layers, maps, masks, groups)
        steps.append(StepMetrics(
            step=step, t=t, alpha_t=float(alpha_t),
            per_instance=tuple(per_losses), total=float(total),
            total_after=float(total_after), leakage=tuple(leakage),
        ))

        masked = _mask_maps(layers, maps, masks, groups) if config.use_masking else maps
        eps_hat = readout_eps(cache, masked)

        due = (
            n_clusters > 0
            and not optimizing
            and config.update_interval > 0
            and (step - config.bound_steps) % config.update_interval == 0
        )
        if due:
            ca_masks = refine.compute_ca_masks(
                layers, masked, groups, refinement.smoothing, refinement.sigma_noun
            )
            sa_layers = gated_layers(layers, SELF)
            if sa_layers:
                features = masked[sa_layers[0]]
                state = refine.kmeans_self_attention(
                    features, n_clusters, prev_centers=prev_centers,
                    seed=config.seed,
                )
                prev_centers = state.centers
                new_masks = refine.assign_clusters(
                    ca_masks, state, refinement.sigma_cluster
                )
                for i, nm in enumerate(new_masks):
                    if nm.is_empty():
                        warnings.warn(
                            f"refined mask for instance {i} is empty; keeping previous",
                            DegenerateInputWarning, stacklevel=2,
                        )
                        continue
                    masks[i] = masks_at_all_resolutions(nm, resolutions)
                    refined_any = True

        if t > 0:
            z = ddim_step(z, eps_hat, t, t - 1, schedule)
        else:
            z = predict_clean(z, eps_hat, 0, schedule)
        if not np.all(np.isfinite(z)):
            raise DivergenceError(f"synthesis latent non-finite after step {step}")

    return SynthesisResult(z_final=z, steps=steps, masks=masks, refined=refined_any)
