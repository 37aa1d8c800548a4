"""Stage two of the engine: box-controlled synthesis.

A reverse sampling loop steers instance tokens into user-supplied boxes. For
the first ``bound_steps`` sampling steps the latent is nudged down the
gradient of a combined cross/self-attention loss whose penalty share decays
linearly-then-cosine; every step, attention masking suppresses out-of-box
interactions in the maps used for the noise readout; in the remaining steps
the control masks are periodically refined from the attention itself.

Control losses and their latent gradients are always evaluated on the raw
(unmasked) maps — the masked maps have zeros exactly where the penalty term
needs support, which would kill the gradient. Each sampling step therefore
runs in this order:

1. forward pass; box loss on the raw maps;
2. in the optimization phase: the loss gradient, backprop and a latent step,
   then a fresh forward pass and the loss again, on the new raw maps;
3. leakage on the raw maps;
4. the noise readout of the masked maps. On a step that does not refresh the
   masks, masking happens inside the readout: the cross-attention maps are
   masked in place, and a self-attention layer's output is its raw ``A V``
   with the in-box rows recomputed from their permitted columns alone, so
   its map is never written or divided. The raw ``A V`` runs one row block
   per task on the row-block workers (``core.map_row_blocks``), as the
   forward pass's softmax does. On a refresh step the maps are masked in
   place and read out;
5. on a refresh step, the mask refresh from those masked maps;
6. the DDIM step.

Masking in place and the masked readout permit each in-box row the same
columns (``_permitted_columns``): the union of the boxes that contain it.

The self-attention box energies read only in-box rows. Each layer's
energies for every instance come from one pass over the union of those
rows, one row block at a time: a block is squared once, and one product
with a (pixels x 2 instances) 0/1 matrix of the columns ``[m_i, 1 - m_i]``
gives every instance's in-box and out-of-box sums.

A step keeps one set of maps alive at a time: each forward pass's maps are
dropped before the next pass builds new ones, masking writes into them
instead of copying, and the mask refresh clusters them without a copy. The
optimization adds the box-loss gradient and the backward pass's row-block
buffers. The self-attention gradient covers only the in-box rows, the only
rows the box energies read, and the backward runs over those rows alone, so
no second map-sized array is built.
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
    check_finite_fields,
    check_tokens,
    gated_layers,
    map_row_blocks,
    matched_arrays,
    resample_mask_nearest,
    row_blocks,
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
    readout_from_outputs,
    record_from_maps,
    toy_schedule,
)
from .errors import ConfigurationError, DegenerateInputWarning, DivergenceError, ShapeError
from .fileio import write_csv
from .gradients import RowGrad, backprop
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
        check_finite_fields(self)
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
        check_finite_fields(self)
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


def _flat_masks(masks, layer) -> np.ndarray:
    """Each instance's mask at ``layer``'s resolution, flattened: an
    (instances, pixels) array of 0.0 and 1.0."""
    res = (layer.height, layer.width)
    return np.array([m[res].flat() for m in masks]).reshape(
        len(masks), layer.height * layer.width)


def _sa_box_energies(attn: np.ndarray, flats: np.ndarray) -> np.ndarray:
    """In-box and out-of-box squared self-attention energy of every
    instance, an (instances, 2) array: the squares of an instance's in-box
    rows summed over its in-box (fg) and out-of-box (bg) targets. One pass
    over the union of the in-box rows, one row block at a time: each block
    is squared once, and one product with the 0/1 columns [m_i, 1 - m_i]
    sums every instance's targets, since (a m)^2 = a^2 m for m in {0, 1}."""
    n_inst = flats.shape[0]
    targets = np.empty((attn.shape[1], 2 * n_inst))
    targets[:, 0::2] = flats.T
    targets[:, 1::2] = 1.0 - flats.T
    union = np.flatnonzero((flats > 0.5).any(axis=0))
    sums = np.zeros((n_inst, 2 * n_inst))
    for blk in row_blocks(union.size, attn.shape[1]):
        sq = attn[union[blk]]
        np.square(sq, out=sq)
        sums += flats[:, union[blk]] @ (sq @ targets)
    own = np.arange(n_inst)
    return sums.reshape(n_inst, n_inst, 2)[own, own]


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
        check_tokens(group, layer.amap.cols)
        return _ca_energies(layer.amap.weights, m, list(group))
    fg, bg = _sa_box_energies(layer.amap.weights, m[None, :])[0]
    return float(fg), float(bg)


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


def _typed_terms(gated, config: SynthesisConfig, terms: _InstanceTerms):
    """Per attention type, cross then self: the type, its decoder layer
    indices (``gated``), its loss weight and the instance's energy lists."""
    ca_idx, sa_idx = gated
    return ((CROSS, ca_idx, config.lambda_ca, terms.fg_ca, terms.bg_ca),
            (SELF, sa_idx, config.lambda_sa, terms.fg_sa, terms.bg_sa))


def _box_loss_terms(layers, maps, masks, groups, alpha_t: float,
                    config: SynthesisConfig) -> "tuple[list[_InstanceTerms], float]":
    """Per-instance energies and scores, and their squared sum. The kernels
    here take the layer objects (``LayerSpec`` or a ``workspace`` copy,
    ``LayerAttention`` from a record) for their tags and extents, and the
    maps as raw arrays in layer order. Callers check the token ids."""
    gated = (gated_layers(layers, CROSS), gated_layers(layers, SELF))
    sa_energies = {li: _sa_box_energies(maps[li], _flat_masks(masks, layers[li])).tolist()
                   for li in gated[1]}
    per_instance: "list[_InstanceTerms]" = []
    total = 0.0
    for i, group in enumerate(groups):
        terms = _InstanceTerms()
        loss_i = 0.0
        for attn_type, idx, weight, fgs, bgs in _typed_terms(gated, config, terms):
            if not idx:
                continue
            for li in idx:
                if attn_type == CROSS:
                    m = masks[i][(layers[li].height, layers[li].width)].flat()
                    fg, bg = _ca_energies(maps[li], m, list(group))
                else:
                    fg, bg = sa_energies[li][i]
                fgs.append(fg)
                bgs.append(bg)
            fg_bar, bg_bar = mean_energies(fgs, bgs)
            part = reward_box_score(fg_bar, bg_bar)
            if config.use_out_of_box:
                part += alpha_t * penalty_box_score(bg_bar)
            loss_i += weight * part
        terms.loss = loss_i
        per_instance.append(terms)
        total += loss_i ** 2
    return per_instance, total


def _box_loss_grads(layers, maps, masks, groups, alpha_t: float,
                    config: SynthesisConfig,
                    per_instance: "list[_InstanceTerms]") -> "list[np.ndarray | RowGrad | None]":
    """dL/dA per layer for L = sum_i loss_i^2, given precomputed terms. A
    cross-attention gradient is dense; a self-attention one is a ``RowGrad``
    on the union of the in-box rows, the only rows its energies read."""
    gated = (gated_layers(layers, CROSS), gated_layers(layers, SELF))
    d_attn: "list[np.ndarray | RowGrad | None]" = [None] * len(layers)
    sa_coefs: "dict[int, list]" = {}  # layer -> (in-box rows, coefficient row) per instance

    for i, group in enumerate(groups):
        terms = per_instance[i]
        outer = 2.0 * terms.loss  # d(total)/d(loss_i)
        for attn_type, idx, weight, fgs, bgs in _typed_terms(gated, config, terms):
            if not idx:
                continue
            fg_bar, bg_bar = mean_energies(fgs, bgs)
            dr_fg, dr_bg = _score_derivs(fg_bar, bg_bar)
            db = dr_bg + (alpha_t / (1.0 + bg_bar) if config.use_out_of_box else 0.0)
            cf = outer * weight * dr_fg / len(idx)
            cb = outer * weight * db / len(idx)
            for li in idx:
                m = masks[i][(layers[li].height, layers[li].width)].flat()
                if attn_type == CROSS:
                    if d_attn[li] is None:  # accumulated over instances
                        d_attn[li] = np.zeros_like(maps[li])
                    grad = d_attn[li]
                    for token in group:
                        col = maps[li][:, token]
                        grad[:, token] += cf * 2.0 * m * col + cb * 2.0 * (1.0 - m) * col
                else:
                    sa_coefs.setdefault(li, []).append(
                        (m > 0.5, cf * 2.0 * m[None, :] + cb * 2.0 * (1.0 - m)[None, :]))
    for li, coefs in sa_coefs.items():
        d_attn[li] = _sa_row_grad(maps[li], coefs)
    return d_attn


def _sa_row_grad(attn: np.ndarray, coefs) -> RowGrad:
    """The sum over instances of each in-box row of ``attn`` times the
    instance's coefficient row, on the union of the in-box rows, built one
    row block at a time."""
    inside = np.array([rows for rows, _ in coefs], dtype=bool)
    union = np.flatnonzero(inside.any(axis=0))
    values = np.zeros((union.size, attn.shape[1]))
    for blk in row_blocks(union.size, attn.shape[1]):
        raw = attn[union[blk]]
        part = np.empty_like(raw)
        out = values[blk]
        for sel, (_, coef) in zip(inside[:, union[blk]], coefs):
            np.multiply(raw, coef, out=part, where=sel[:, None])
            np.add(out, part, out=out, where=sel[:, None])
    return RowGrad(union, values)


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
    record.token_layers([token for group in groups for token in group])
    per_instance, total = _box_loss_terms(record.layers, record.maps(), masks,
                                          groups, alpha_t, config)
    return [p.loss for p in per_instance], total


def latent_opt_step(z: np.ndarray, grad: np.ndarray, beta: float) -> np.ndarray:
    """One explicit gradient step on the latent."""
    z, grad = matched_arrays(z, grad, "latent", "gradient")
    if beta < 0.0:
        raise ConfigurationError("beta: must be >= 0")
    if not np.all(np.isfinite(grad)):
        raise DivergenceError("latent gradient contains non-finite values")
    return z - beta * grad


# ---------------------------------------------------------------------------
# Attention masking
# ---------------------------------------------------------------------------

def _mask_maps(layers, maps, masks, groups) -> "list[np.ndarray]":
    """Suppress out-of-box attention in every layer's map, in place.

    Cross attention: zero each instance token's weight at pixels outside its
    mask. Self attention: zero attention from in-box pixels to the targets
    ``_permitted_columns`` does not permit. Rows are renormalized; a fully
    suppressed row falls back to uniform over its permitted targets
    (diagnostic warning). The given arrays are overwritten and returned as a
    list; a caller that still needs the raw maps passes copies. Callers check
    the token ids.
    """
    for layer, attn in zip(layers, maps):
        flats = _flat_masks(masks, layer)
        permitted = []
        if layer.attn_type == CROSS:
            for m, group in zip(flats, groups):
                outside = m < 0.5
                for token in group:
                    attn[outside, token] = 0.0
        else:
            permitted = list(_permitted_columns(flats > 0.5))
            for rows, allowed in permitted:
                block = attn[rows]
                np.copyto(block, 0.0, where=~allowed)
                attn[rows] = block
        sums = attn.sum(axis=1, keepdims=True)
        dead = sums[:, 0] <= 0.0
        if np.any(dead):
            warnings.warn(
                "attention masking zeroed entire rows; using uniform fallback",
                DegenerateInputWarning, stacklevel=2,
            )
            anywhere = dead.copy()  # dead rows that may attend to every target
            for rows, allowed in permitted:
                attn[np.ix_(rows[dead[rows]], allowed)] = 1.0 / allowed.sum()
                anywhere[rows] = False
            attn[anywhere, :] = 1.0 / attn.shape[1]
            sums = attn.sum(axis=1, keepdims=True)
        attn /= sums
    return maps


def _permitted_columns(inside: np.ndarray):
    """Which targets each in-box pixel may attend to under self-attention
    masking: the union of the boxes containing it. ``inside`` is (boxes,
    pixels). Yields one row group per distinct set of containing boxes: its
    pixel indices and its boolean column selector. Pixels in no box are in
    no group; masking leaves their rows alone."""
    if inside.shape[0] == 0:
        return
    keys = np.ascontiguousarray(inside.T).view(np.dtype((np.void, inside.shape[0])))
    _, first, group_of = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    for g, pixel in enumerate(first):
        boxes_in = inside[:, pixel]
        if boxes_in.any():
            yield np.nonzero(group_of.ravel() == g)[0], inside[boxes_in].any(axis=0)


def _masked_readout(cache, masks, groups) -> np.ndarray:
    """The noise prediction from the masked maps, ``readout_eps(cache,
    _mask_maps(...))`` up to rounding, without writing the self-attention
    maps. The small cross-attention maps are masked in place. A
    self-attention layer's output is the raw ``A V`` with the rows of each
    ``_permitted_columns`` group, permitted columns C, overwritten by
    ``A[rows, C] V[C] / rowsum(A[rows, C])``, one row block at a time; a row
    with no mass on C falls back to the mean of ``V[C]`` (diagnostic
    warning). Rows in no box keep their output: a softmax row sums to one.
    Callers check the token ids."""
    outputs = []
    for lc in cache.layers:
        if lc.work.attn_type == CROSS:
            attn, = _mask_maps([lc.work], [lc.attn], masks, groups)
            outputs.append(attn @ lc.v)
            continue
        out = np.empty((lc.attn.shape[0], lc.v.shape[1]))

        def raw_readout(blk):
            np.matmul(lc.attn[blk], lc.v, out=out[blk])

        map_row_blocks(raw_readout, *lc.attn.shape)
        any_dead = False
        for rows, allowed in _permitted_columns(_flat_masks(masks, lc.work) > 0.5):
            cols = np.flatnonzero(allowed)
            v_allowed = lc.v[cols]
            for blk in row_blocks(rows.size, cols.size):
                sub = lc.attn[np.ix_(rows[blk], cols)]
                sums = sub.sum(axis=1)
                part = sub @ v_allowed
                dead = sums <= 0.0
                if dead.any():
                    any_dead = True
                    part[dead] = v_allowed.mean(axis=0)
                    sums[dead] = 1.0
                part /= sums[:, None]
                out[rows[blk]] = part
        if any_dead:
            warnings.warn(
                "attention masking zeroed entire rows; using uniform fallback",
                DegenerateInputWarning, stacklevel=2,
            )
        outputs.append(out)
    return readout_from_outputs(cache, outputs)


def apply_attention_masking(record: AttentionRecord, masks, groups) -> AttentionRecord:
    """Masked copy of a record; idempotent for fixed masks and groups."""
    if len(masks) != len(groups):
        raise ConfigurationError("need one mask set and one token group per instance")
    tokens = [token for group in groups for token in group]
    for layer in record.layers:
        if layer.attn_type == CROSS:
            check_tokens(tokens, layer.amap.cols)
    masked = _mask_maps(record.layers, [m.copy() for m in record.maps()],
                        masks, groups)
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
    only and refresh the masks every ``update_interval`` steps. Within a
    step the raw maps are read first (box loss, its gradient, leakage), then
    the noise is read out of the masked maps, which are masked in place only
    for a refresh; see the module docstring. Raises DivergenceError naming
    the step once the control loss or the latent goes non-finite.
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
    check_tokens([token for group in groups for token in group], emb.shape[0])

    layers = params.layers
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

    n_clusters = 0
    if refinement is not None:
        refinement.validate()
        if refinement.enabled:
            n_clusters = refinement.clusters if refinement.clusters > 0 else len(boxes) + 1
    run = _SamplingRun(emb=emb, layers=layers, groups=groups, masks=masks,
                       resolutions=resolutions, config=config, sched=sched,
                       schedule=schedule, refinement=refinement,
                       n_clusters=n_clusters)
    steps: "list[StepMetrics]" = []
    for step in range(1, config.total_steps + 1):
        z, metrics = _sampling_step(run, z, step)
        steps.append(metrics)
    return SynthesisResult(z_final=z, steps=steps, masks=run.masks,
                           refined=run.refined)


@dataclass
class _SamplingRun:
    """What a run carries from step to step: its fixed inputs, the control
    masks (replaced at a refresh) and the last refresh's K-means centers."""

    emb: np.ndarray
    layers: tuple
    groups: "list[list[int]]"
    masks: "list[dict]"
    resolutions: "list[tuple[int, int]]"
    config: SynthesisConfig
    sched: ScheduleParams
    schedule: NoiseSchedule
    refinement: "refine.RefinementConfig | None"
    n_clusters: int               # 0: no refresh
    prev_centers: np.ndarray | None = None
    refined: bool = False         # True once refinement replaced a box mask


def _sampling_step(run: _SamplingRun, z: np.ndarray,
                   step: int) -> "tuple[np.ndarray, StepMetrics]":
    """One sampling step, in the order the module docstring gives: the
    latent after it and the step's metrics. The step's maps are local here,
    so none of them outlives the step."""
    config, layers, masks, groups = run.config, run.layers, run.masks, run.groups
    t = config.total_steps - step
    optimizing = step <= config.bound_steps
    alpha_t = alpha_decay(min(step, run.sched.horizon), run.sched)

    cache = forward_cache(z, run.emb, layers)
    per_terms, total = _box_loss_terms(layers, cache.maps(), masks, groups,
                                       alpha_t, config)
    total_after = total
    if optimizing and config.beta > 0.0:
        z = _latent_step(z, cache, run, alpha_t, per_terms)
        del cache  # drop the old maps before the forward pass builds new ones
        cache = forward_cache(z, run.emb, layers)
        _, total_after = _box_loss_terms(layers, cache.maps(), masks, groups,
                                         alpha_t, config)
        if not np.isfinite(total_after):
            raise DivergenceError(f"synthesis loss non-finite at step {step}")

    maps = cache.maps()
    leakage = _leakage_from_maps(layers, maps, masks, groups)
    metrics = StepMetrics(
        step=step, t=t, alpha_t=float(alpha_t),
        per_instance=tuple(p.loss for p in per_terms), total=float(total),
        total_after=float(total_after), leakage=tuple(leakage),
    )

    due = (
        run.n_clusters > 0
        and not optimizing
        and config.update_interval > 0
        and (step - config.bound_steps) % config.update_interval == 0
    )
    if config.use_masking and not due:
        eps_hat = _masked_readout(cache, masks, groups)
    else:
        if config.use_masking:  # the refresh clusters the masked maps
            maps = _mask_maps(layers, maps, masks, groups)
        eps_hat = readout_eps(cache, maps)
        if due:
            _refresh_masks(run, maps)

    if t > 0:
        z = ddim_step(z, eps_hat, t, t - 1, run.schedule)
    else:
        z = predict_clean(z, eps_hat, 0, run.schedule)
    if not np.all(np.isfinite(z)):
        raise DivergenceError(f"synthesis latent non-finite after step {step}")
    return z, metrics


def _latent_step(z: np.ndarray, cache, run: _SamplingRun, alpha_t: float,
                 per_terms: "list[_InstanceTerms]") -> np.ndarray:
    """The latent after one gradient step on the box loss of ``cache``'s raw
    maps. The gradient buffers are local here and go when it returns."""
    d_attn = _box_loss_grads(run.layers, cache.maps(), run.masks, run.groups,
                             alpha_t, run.config, per_terms)
    res = backprop(cache, d_attn=d_attn, d_eps=None, wrt=("z",))
    return latent_opt_step(z, res.d_z, run.config.beta)


def _refresh_masks(run: _SamplingRun, maps: "list[np.ndarray]") -> None:
    """Refine the control masks from a step's masked maps: coarse masks from
    the cross-attention maps, K-means over the first gated self-attention
    map, clusters assigned to instances. An instance whose refined mask is
    empty keeps its previous one."""
    refinement = run.refinement
    ca_masks = refine.compute_ca_masks(
        run.layers, maps, run.groups, refinement.smoothing, refinement.sigma_noun
    )
    sa_layers = gated_layers(run.layers, SELF)
    if not sa_layers:
        return
    state = refine.kmeans_self_attention(
        maps[sa_layers[0]], run.n_clusters, prev_centers=run.prev_centers,
        seed=run.config.seed,
    )
    run.prev_centers = state.centers
    new_masks = refine.assign_clusters(ca_masks, state, refinement.sigma_cluster)
    for i, nm in enumerate(new_masks):
        if nm.is_empty():
            # stacklevel 4 names the caller of run_synthesis.
            warnings.warn(
                f"refined mask for instance {i} is empty; keeping previous",
                DegenerateInputWarning, stacklevel=4,
            )
            continue
        run.masks[i] = masks_at_all_resolutions(nm, run.resolutions)
        run.refined = True
