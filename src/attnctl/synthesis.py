"""Stage two of the engine: box-controlled synthesis.

A reverse sampling loop steers instance tokens into user-supplied boxes. For
the first ``bound_steps`` sampling steps the latent is nudged down the
gradient of a combined cross/self-attention loss whose penalty share decays
linearly-then-cosine over those same steps; every step, attention masking
suppresses out-of-box interactions in the maps used for the noise readout;
in the remaining steps, with refinement enabled, the control masks are
refreshed from the attention itself every ``update_interval`` steps.

Control losses and their latent gradients are always evaluated on the raw
(unmasked) maps: the masked maps have zeros exactly where the penalty term
needs support, which would kill the gradient. Each sampling step runs in
this order:

1. a forward pass, and the box loss on its raw maps;
2. while optimizing: the loss gradient, backprop and a latent step, then a
   second forward pass and the loss again;
3. leakage on the raw cross-attention maps;
4. the noise readout of the masked maps;
5. on a refresh step, the mask refresh from the masked maps;
6. the DDIM step.

A self-attention layer's map is computed one row block at a time, and each
block's task reads from the block all that the step needs of it
(``sapass.SAPass``); what each forward pass computes and keeps:

- the first pass of an optimizing step computes the in-box rows alone, the
  only rows the box energies and their gradient read, with the energies,
  and keeps them in one compact (rows x n) array, from which the gradient
  (``sapass.SARowGrad``) and the backward pass read them in place, the
  backward in blocks split evenly between the two row-block lanes. It is
  the only row-restricted backward, and ``attnctl gradcheck`` checks it:
  its box-loss checks build their gradient as a step does, from this pass
  (``_forward``), its energies and ``_box_loss_grads``;
- any other pass computes every row, and from each block the energies,
  the raw ``A V`` of rows in no box and the masked readout of in-box rows.
  It keeps the in-box rows alone, and never stores a row in no box; it
  divides by the row sums only the rows it keeps and the d-wide outputs;
- a refresh step's pass is the second kind, its readout product r columns
  wider: each row's masked row times one fixed n x r Gaussian matrix
  (``sapass.sketch_basis``), the sketches that K-means clusters. No step
  holds an n x n array.

The cross-attention maps are small and whole; the readout masks them in
place. Masking permits each in-box row the columns of the boxes that hold
it (``sapass.permitted_columns``) and divides it by its sum; a row in no
box is left as the softmax wrote it, on every step. The record API sums
the passes' own energy partials (``sapass.block_energies``) over a whole
map, so its energies are the loop's, bit for bit.

A step keeps one pass's rows alive at a time: each pass writes what it
keeps into the run's one store per layer, which a step's next pass
overwrites once the step has dropped the previous cache, and the
self-attention passes' and the backward's per-block temporaries go in
scratch allocated once per run. What the kernels derive from the control
masks, each resolution's flat masks and self-attention row layout, is built
once per mask set (``_MaskSet``), which a refresh replaces.
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
    matched_arrays,
    resample_mask_nearest,
    row_blocks,
    row_scratch,
    row_sums,
)
from .denoiser import (
    DenoiserParams,
    NoiseSchedule,
    TokenEmbedding,
    _token_matrix,
    ddim_step,
    forward_cache,
    predict_clean,
    readout_from_outputs,
    record_from_maps,
    toy_schedule,
)
from .errors import ConfigurationError, DegenerateInputWarning, DivergenceError, ShapeError
from .fileio import write_csv
from .gradients import RowGrad, backprop
from .sapass import (
    INBOX,
    STREAM,
    RowLayout,
    SAPass,
    SARowGrad,
    block_energies,
    sketch_basis,
)
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

    def validate(self) -> None:
        check_finite_fields(self)
        if not 0.0 < self.alpha_final <= self.alpha_min <= self.alpha_max:
            raise ConfigurationError(
                "need 0 < alpha_final <= alpha_min <= alpha_max"
            )
        if self.linear_end < 1:
            raise ConfigurationError("linear_end: must be >= 1")


def alpha_decay(t: int, params: ScheduleParams, horizon: int) -> float:
    """Penalty weight at optimization step t (1-based) of a decay over
    ``horizon`` steps, the optimization phase (``bound_steps``).

    Steps 1..linear_end interpolate alpha_max -> alpha_min linearly; steps
    linear_end..horizon follow a half-cosine from alpha_min to alpha_final.
    """
    params.validate()
    if not params.linear_end < horizon:
        raise ConfigurationError(f"need linear_end {params.linear_end} < horizon {horizon}")
    t = int(t)
    if not 1 <= t <= horizon:
        raise ValueError(f"step {t} outside decay range [1, {horizon}]")
    if t == 1:
        return params.alpha_max
    if t <= params.linear_end:
        frac = (t - 1) / (params.linear_end - 1)
        return params.alpha_max + frac * (params.alpha_min - params.alpha_max)
    phase = np.pi * (t - params.linear_end) / (horizon - params.linear_end)
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
        if self.update_interval < 1:
            raise ConfigurationError("update_interval: must be >= 1")
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


class _MaskSet(list):
    """Control masks, one resolution-indexed mask dict per instance, with
    what a step's kernels derive from them built once per mask set: each
    resolution's flat masks (``_flat_masks``) and self-attention row layout
    (``_row_layout``). A run's set is replaced at a refresh, never changed
    in place; a plain list of mask dicts serves the kernels as well, with
    nothing kept between calls."""

    def __init__(self, masks):
        super().__init__(masks)
        self.flats: "dict[tuple[int, int], np.ndarray]" = {}
        self.layouts: "dict[tuple[int, int], RowLayout]" = {}


def _flat_masks(masks, layer) -> np.ndarray:
    """Each instance's mask at ``layer``'s resolution, flattened: an
    (instances, pixels) read-only array of 0.0 and 1.0."""
    res = (layer.height, layer.width)
    known = masks.flats if isinstance(masks, _MaskSet) else {}
    flats = known.get(res)
    if flats is None:
        flats = known[res] = np.array([m[res].flat() for m in masks]).reshape(
            len(masks), layer.height * layer.width)
        flats.setflags(write=False)
    return flats


def _row_layout(masks, layer) -> RowLayout:
    """The ``sapass.RowLayout`` of a self-attention layer's in-box rows."""
    res = (layer.height, layer.width)
    known = masks.layouts if isinstance(masks, _MaskSet) else {}
    layout = known.get(res)
    if layout is None:
        layout = known[res] = RowLayout(_flat_masks(masks, layer))
    return layout


def _sa_box_energies(attn: np.ndarray, layout: RowLayout) -> np.ndarray:
    """In-box and out-of-box squared self-attention energy of every
    instance of ``layout``, an (instances, 2) array: the squares of an
    instance's in-box rows summed over its in-box (fg) and out-of-box (bg)
    targets, one partial per row block of the map
    (``sapass.block_energies``), summed in block order. A synthesis pass
    sums the same block partials as it computes the rows
    (``sapass.SAPass``); this form serves a whole map."""
    n = attn.shape[0]
    buf = np.empty((min(n, layout.step), attn.shape[1]))
    parts = (block_energies(attn[blk], rows.owned_local, layout.targets, buf)
             for blk, rows in zip(row_blocks(n, n), layout.blocks) if rows.local.size)
    return sum(parts, np.zeros((layout.flats.shape[0], 2)))


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
    fg, bg = _sa_box_energies(layer.amap.weights, RowLayout(m[None, :]))[0]
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
                    config: SynthesisConfig,
                    sa_energies=None) -> "tuple[list[_InstanceTerms], float]":
    """Per-instance energies and scores, and their squared sum. The kernels
    here take the layer objects (``LayerSpec`` or a ``workspace`` copy,
    ``LayerAttention`` from a record) for their tags and extents, and the
    maps as raw arrays in layer order. ``sa_energies`` maps each gated
    self-attention layer to its ``_sa_box_energies``, as a synthesis pass
    computes them; without it they are computed from ``maps``. Callers
    check the token ids."""
    gated = (gated_layers(layers, CROSS), gated_layers(layers, SELF))
    if sa_energies is None:
        sa_energies = {li: _sa_box_energies(maps[li], _row_layout(masks, layers[li]))
                       for li in gated[1]}
    sa_energies = {li: sa_energies[li].tolist() for li in gated[1]}
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
                    m = _flat_masks(masks, layers[li])[i]
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
                    config: SynthesisConfig, per_instance: "list[_InstanceTerms]",
                    scratch) -> "list[np.ndarray | RowGrad | None]":
    """dL/dA per layer for L = sum_i loss_i^2, given precomputed terms, on
    the maps of an ``INBOX`` pass (``_forward``). A cross-attention
    gradient is dense; a self-attention one is a ``sapass.SARowGrad`` on the
    layer's compact in-box rows, the only rows its energies read, which
    ``backprop`` runs on the lanes of ``scratch``, the run's
    ``row_scratch`` by map width."""
    gated = (gated_layers(layers, CROSS), gated_layers(layers, SELF))
    d_attn: "list[np.ndarray | RowGrad | None]" = [None] * len(layers)
    sa_coefs: "dict[int, list]" = {}  # layer -> coefficient row per instance

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
                m = _flat_masks(masks, layers[li])[i]
                if attn_type == CROSS:
                    if d_attn[li] is None:  # accumulated over instances
                        d_attn[li] = np.zeros_like(maps[li])
                    grad = d_attn[li]
                    for token in group:
                        col = maps[li][:, token]
                        grad[:, token] += cf * 2.0 * m * col + cb * 2.0 * (1.0 - m) * col
                else:
                    sa_coefs.setdefault(li, []).append(
                        cf * 2.0 * m[None, :] + cb * 2.0 * (1.0 - m)[None, :])
    for li, coefs in sa_coefs.items():
        d_attn[li] = SARowGrad(maps[li], coefs, _row_layout(masks, layers[li]),
                               scratch[maps[li].shape[1]])
    return d_attn


def combined_attn_loss(record: AttentionRecord, masks, groups, t: int,
                       sched: ScheduleParams,
                       config: SynthesisConfig) -> "tuple[list[float], float]":
    """Per-instance combined scores and their squared sum at decay step t
    of a decay over ``config.bound_steps`` steps.

    masks: one resolution-indexed mask dict per instance (see
    instance_masks_from_boxes); groups: one token-id list per instance.
    """
    config.validate()
    if len(masks) != len(groups):
        raise ConfigurationError("need one mask set and one token group per instance")
    alpha_t = alpha_decay(t, sched, config.bound_steps)
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
    mask and renormalize every row; a fully suppressed row falls back to
    uniform. Self attention: the in-box rows of each row block of the map,
    by ``sapass.permitted_columns`` group (``sapass.RowLayout``), are
    multiplied by the 0/1 targets the group permits and divided by their
    sums, a fully suppressed row falling back to uniform over its permitted
    targets first; a row in no box is left as given. A fallback warns. The
    given arrays are overwritten and returned as a list; a caller that
    still needs the raw maps passes copies. Callers check the token ids.
    """
    for layer, attn in zip(layers, maps):
        if layer.attn_type == CROSS:
            for m, group in zip(_flat_masks(masks, layer), groups):
                outside = m < 0.5
                for token in group:
                    np.copyto(attn[:, token], 0.0, where=outside)
            sums = row_sums(attn)
            dead = sums[:, 0] <= 0.0
            if np.any(dead):
                attn[dead, :] = 1.0 / attn.shape[1]
                sums = row_sums(attn)
            attn /= sums
        else:
            layout, dead = _row_layout(masks, layer), False
            for blk, rows in zip(row_blocks(*attn.shape), layout.blocks):
                for g, _, local in rows.groups:  # a copy of one row block at most
                    allowed, block = layout.allowed[g], attn[blk][local]
                    block *= allowed
                    sums = block.sum(axis=1, keepdims=True)
                    gone = sums[:, 0] <= 0.0
                    if gone.any():
                        dead = True
                        block[gone] = allowed / allowed.sum()
                        sums[gone] = block[gone].sum(axis=1, keepdims=True)
                    block /= sums
                    attn[blk][local] = block
        if np.any(dead):
            warnings.warn(
                "attention masking zeroed entire rows; using uniform fallback",
                DegenerateInputWarning, stacklevel=2,
            )
    return maps


def _masked_readout(cache, masks, groups, passes) -> np.ndarray:
    """The noise prediction from the masked maps: ``readout_eps(cache,
    _mask_maps(...))`` up to rounding. A layer with a pass (``passes``, by
    layer index, from ``_forward``) reads out its pass's output. Any other
    layer's map is whole, as every cross-attention map is. It is masked in
    place (and the masked map put back in the cache) and read out as
    ``masked @ V``. A warning goes out per layer with a row
    that masking empties. Callers check the token ids."""
    for sa in passes.values():
        if sa.dead:
            warnings.warn(
                "attention masking zeroed entire rows; using uniform fallback",
                DegenerateInputWarning, stacklevel=2,
            )

    def outputs():
        for li, lc in enumerate(cache.layers):
            if li in passes:
                yield passes[li].out
            else:
                lc.attn, = _mask_maps([lc.work], [lc.attn], masks, groups)
                yield lc.attn @ lc.v

    return readout_from_outputs(cache, outputs())


def apply_attention_masking(record: AttentionRecord, masks, groups) -> AttentionRecord:
    """Masked copy of a record (``_mask_maps``): a self-attention row in no
    box is left as given. Idempotent for fixed masks and groups."""
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
            m = _flat_masks(masks, layers[li])[i]
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
    iteration each; the penalty weight (``sched``, by default
    ``ScheduleParams()``) decays over them and then holds. Later steps apply
    masking only and, with ``refinement`` enabled, refresh the masks every
    ``update_interval`` steps. Within a step the raw maps are read first
    (box loss, its gradient, leakage), then the noise is read out of the
    masked maps; see the module docstring. Raises DivergenceError naming
    the step once the control loss or the latent goes non-finite.
    """
    config.validate()
    if sched is None:
        sched = ScheduleParams()
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

    if refinement is not None:
        refinement.validate()
    run = _SamplingRun(emb=emb, layers=layers, groups=groups, masks=_MaskSet(masks),
                       resolutions=resolutions, config=config, sched=sched,
                       schedule=schedule,
                       refinement=refinement if refinement and refinement.enabled else None,
                       z=z)
    del z  # the run holds the latent; a step drops the old one once it has a new one
    steps = []
    for step in range(1, config.total_steps + 1):
        steps.append(_sampling_step(run, step))
    return SynthesisResult(z_final=run.z, steps=steps, masks=list(run.masks),
                           refined=run.refined)


@dataclass
class _SamplingRun:
    """What a run carries from step to step: its fixed inputs, the control
    masks with their flat masks and self-attention row layouts (a
    ``_MaskSet``, replaced at a refresh), the latent, the last refresh's
    K-means centers (r wide, as the sketches are), the self-attention
    passes' scratch, allocated once, and stores of their in-box rows,
    reallocated only when a refresh grows the rows; ``refinement`` is None
    when the masks are never refreshed."""

    emb: np.ndarray
    layers: tuple
    groups: "list[list[int]]"
    masks: _MaskSet
    resolutions: "list[tuple[int, int]]"
    config: SynthesisConfig
    sched: ScheduleParams
    schedule: NoiseSchedule
    refinement: "refine.RefinementConfig | None"
    prev_centers: np.ndarray | None = None
    refined: bool = False         # True once refinement replaced a box mask
    z: np.ndarray | None = None   # the latent between steps
    scratch: dict = field(default_factory=dict)  # pixels -> the SA passes' row_scratch
    stores: dict = field(default_factory=dict)   # SA layer -> what its passes keep


def _sampling_step(run: _SamplingRun, step: int) -> StepMetrics:
    """One sampling step, in the order the module docstring gives: moves
    ``run.z`` to the latent after it and returns the step's metrics. The
    step's maps are local here, so none of them outlives the step."""
    config, layers, masks, groups = run.config, run.layers, run.masks, run.groups
    z, run.z = run.z, None
    t = config.total_steps - step
    optimizing = step <= config.bound_steps
    alpha_t = alpha_decay(min(step, config.bound_steps), run.sched, config.bound_steps)
    due = (run.refinement is not None and not optimizing
           and (step - config.bound_steps) % config.update_interval == 0)
    descend = optimizing and config.beta > 0.0

    cache, passes = _forward(run, z, INBOX if descend else STREAM, sketch=due)
    per_terms, total = _box_loss_terms(layers, cache.maps(), masks, groups,
                                       alpha_t, config, _pass_energies(passes))
    total_after = total
    if descend:
        z = _latent_step(z, cache, run, alpha_t, per_terms)
        del cache, passes  # drop the old rows before the forward pass builds new ones
        cache, passes = _forward(run, z, STREAM)
        _, total_after = _box_loss_terms(layers, cache.maps(), masks, groups,
                                         alpha_t, config, _pass_energies(passes))
        if not np.isfinite(total_after):
            raise DivergenceError(f"synthesis loss non-finite at step {step}")

    leakage = _leakage_from_maps(layers, cache.maps(), masks, groups)
    metrics = StepMetrics(
        step=step, t=t, alpha_t=float(alpha_t),
        per_instance=tuple(p.loss for p in per_terms), total=float(total),
        total_after=float(total_after), leakage=tuple(leakage),
    )
    eps_hat = _masked_readout(cache, masks, groups, passes)
    if due:  # the refresh clusters the pass's sketches of the masked rows
        _refresh_masks(run, cache.maps(), passes)

    if t > 0:
        z = ddim_step(z, eps_hat, t, t - 1, run.schedule)
    else:
        z = predict_clean(z, eps_hat, 0, run.schedule)
    if not np.all(np.isfinite(z)):
        raise DivergenceError(f"synthesis latent non-finite after step {step}")
    run.z = z
    return metrics


def _forward(run: _SamplingRun, z: np.ndarray, mode: str, sketch: bool = False):
    """A step's forward pass, every self-attention layer in ``mode`` (see
    ``sapass.SAPass``): the cache, and the passes by layer index. With
    ``sketch`` (a refresh step's ``STREAM`` pass) the first gated layer's
    pass also sketches its masked rows. What a pass keeps of
    a layer's map, its compact in-box rows, goes in the run's one store for
    that layer, which each pass overwrites: a step drops its cache before
    its next pass, and the cache does not outlive the step."""
    gated = gated_layers(run.layers, SELF)
    passes = {}
    for li, layer in enumerate(run.layers):
        if layer.attn_type != SELF:
            continue
        layout = _row_layout(run.masks, layer)
        n = layer.height * layer.width
        if n not in run.scratch:
            run.scratch[n] = row_scratch(n, n)
        store = run.stores.get(li)
        if store is None or len(store) < layout.union.size:  # a refresh grew the union
            store = run.stores[li] = np.empty((layout.union.size, n))
        basis = sketch_basis(n) if sketch and li in gated[:1] else None
        passes[li] = SAPass(layout, mode, run.scratch[n], li in gated, store, basis)
    return forward_cache(z, run.emb, run.layers, passes), passes


def _pass_energies(passes) -> dict:
    """The gated self-attention layers' energies, by layer index."""
    return {li: sa.energies for li, sa in passes.items() if sa.gated}


def _latent_step(z: np.ndarray, cache, run: _SamplingRun, alpha_t: float,
                 per_terms: "list[_InstanceTerms]") -> np.ndarray:
    """The latent after one gradient step on the box loss of ``cache``'s raw
    maps. The gradient buffers are local here and go when it returns."""
    d_attn = _box_loss_grads(run.layers, cache.maps(), run.masks, run.groups,
                             alpha_t, run.config, per_terms, scratch=run.scratch)
    res = backprop(cache, d_attn=d_attn, d_eps=None, wrt=("z",))
    return latent_opt_step(z, res.d_z, run.config.beta)


def _refresh_masks(run: _SamplingRun, maps: "list[np.ndarray]", passes) -> None:
    """Refine the control masks from a refresh step: coarse masks from its
    masked cross-attention maps, K-means over the sketches of the first
    gated self-attention layer's masked rows (its pass's ``sketch``),
    clusters assigned to instances. An instance whose refined mask is empty
    keeps its previous one."""
    refinement = run.refinement
    ca_masks = refine.compute_ca_masks(
        run.layers, maps, run.groups, refinement.smoothing, refinement.sigma_noun
    )
    sa_layers = gated_layers(run.layers, SELF)
    if not sa_layers:
        return
    state = refine.kmeans_self_attention(
        passes[sa_layers[0]].sketch, len(run.groups) + 1,  # one cluster more than boxes
        prev_centers=run.prev_centers, seed=run.config.seed,
    )
    run.prev_centers = state.centers
    new_masks = refine.assign_clusters(ca_masks, state, refinement.sigma_cluster)
    masks, changed = list(run.masks), False
    for i, nm in enumerate(new_masks):
        if nm.is_empty():
            # stacklevel 4 names the caller of run_synthesis, whose step
            # loop is a plain loop: before Python 3.12 a comprehension is a
            # frame of its own.
            warnings.warn(
                f"refined mask for instance {i} is empty; keeping previous",
                DegenerateInputWarning, stacklevel=4,
            )
            continue
        masks[i] = masks_at_all_resolutions(nm, run.resolutions)
        changed = True
    if changed:
        run.masks = _MaskSet(masks)
        run.refined = True
