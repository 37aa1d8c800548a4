"""A deliberately small attention-only denoiser and deterministic DDIM steps.

The model exists to give the control losses something real to differentiate
through, not to denoise well. Per layer, the latent grid is block-averaged to
the layer resolution, projected to queries, and attended against either token
embeddings (cross attention) or itself (self attention):

    X = blockmean(z) @ Wq ...    A = softmax(Q K^T / sqrt(d)),   O = A V

The noise prediction is the mean over layers of each layer's output replicated
back to the full grid. ``forward_cache`` keeps the attention maps and values.
It is two parts composed: ``frozen_pass`` runs, for a batch of latents,
everything fixed weights settle (pools, queries, self-attention maps and
values, and cross-attention too when the embeddings are fixed), and
``iteration_cache`` completes one latent's cache on the current embeddings
and value weights, rewriting the pass's one cache in place; the learning
loop runs the first once per chunk of iterations and the second once per
iteration, so a chunk builds its cache objects once. ``readout_eps`` reads
the prediction out of given maps; ``readout_from_outputs`` reads it out of
given layer outputs, which synthesis computes from the masked maps. A self-attention map larger than
one row block is computed a row block at a time, and a row plan
(``_attention``'s ``plan``, synthesis's ``sapass.SAPass``) may read each
block as it is computed and keep only some rows. Keys and values of
cross-attention layers depend only on the token embeddings, never on the
timestep; the whole forward pass is in fact timestep-independent, which keeps
hand-written gradients tractable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    CROSS,
    DECODER,
    ENCODER,
    ROW_BLOCK,
    SELF,
    AttentionMap,
    AttentionRecord,
    LayerAttention,
    check_layer_tags,
    checked_array,
    frozen_array,
    map_row_blocks,
    matched_arrays,
    softmax_rows_inplace,
)
from .errors import ConfigurationError, ShapeError
from .fileio import atomic_write_text, content_lines, fnum, line_fields, parse_numbers


@dataclass(frozen=True)
class TokenEmbedding:
    """One conditioning token: an id, a d-vector, and whether it is trainable."""

    token_id: int
    vector: np.ndarray
    learnable: bool = False

    def __post_init__(self):
        object.__setattr__(self, "vector",
                           frozen_array(self.vector, "TokenEmbedding.vector", ndim=1))


@dataclass(frozen=True)
class LayerSpec:
    """Projection weights and routing tags for one attention layer."""

    kind: str       # "encoder" | "decoder"
    attn_type: str  # "CA" | "SA"
    height: int
    width: int
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray

    def __post_init__(self):
        check_layer_tags(self.kind, self.attn_type)
        if self.height < 1 or self.width < 1:
            raise ShapeError("layer extents must be positive")
        mats = {name: frozen_array(getattr(self, name), name, ndim=2)
                for name in ("wq", "wk", "wv")}
        d = mats["wq"].shape[0]
        for name, m in mats.items():
            if m.shape != (d, d):
                raise ShapeError(f"{name}: expected square ({d},{d}), got {m.shape}")
            object.__setattr__(self, name, m)

    @property
    def dim(self) -> int:
        return self.wq.shape[0]


@dataclass(frozen=True)
class DenoiserParams:
    """The full parameter set: embedding/channel width plus layer stack."""

    dim: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.dim < 1:
            raise ConfigurationError("dim must be >= 1")
        if not self.layers:
            raise ConfigurationError("need at least one layer")
        for l in self.layers:
            if l.dim != self.dim:
                raise ShapeError(f"layer dim {l.dim} != model dim {self.dim}")
        kinds = {(l.kind, l.attn_type) for l in self.layers}
        if (DECODER, CROSS) not in kinds:
            raise ConfigurationError("params must include a decoder cross-attention layer")
        if not any(t == SELF for (_, t) in kinds):
            raise ConfigurationError("params must include a self-attention layer")


def default_params(dim: int, height: int, width: int, seed: int = 0,
                   init_scale: float = 0.1) -> DenoiserParams:
    """Three-layer stack: encoder CA at full resolution, decoder CA and SA at
    half resolution. Weights are seeded uniform on [-init_scale, init_scale]."""
    if height % 2 or width % 2:
        raise ConfigurationError("latent extents must be even (decoder runs at half resolution)")
    rng = np.random.default_rng(seed)

    def mats():
        return [rng.uniform(-init_scale, init_scale, size=(dim, dim)) for _ in range(3)]

    specs = []
    for kind, attn_type, h, w in [
        (ENCODER, CROSS, height, width),
        (DECODER, CROSS, height // 2, width // 2),
        (DECODER, SELF, height // 2, width // 2),
    ]:
        wq, wk, wv = mats()
        specs.append(LayerSpec(kind, attn_type, h, w, wq, wk, wv))
    return DenoiserParams(dim, tuple(specs))


# ---------------------------------------------------------------------------
# Noise schedule and DDIM arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative signal fractions abar_t, strictly decreasing in (0, 1]."""

    alphas_cumprod: np.ndarray

    def __post_init__(self):
        a = frozen_array(self.alphas_cumprod, "alphas_cumprod", ndim=1)
        if a.size < 2:
            raise ShapeError("alphas_cumprod: need a 1-D array of length >= 2")
        if np.any(a <= 0.0) or np.any(a > 1.0):
            raise ValueError("alphas_cumprod: values must lie in (0, 1]")
        if np.any(np.diff(a) >= 0.0):
            raise ValueError("alphas_cumprod: must be strictly decreasing")
        object.__setattr__(self, "alphas_cumprod", a)

    @property
    def total_steps(self) -> int:
        return self.alphas_cumprod.size

    def abar(self, t: int) -> float:
        if not 0 <= t < self.total_steps:
            raise ValueError(f"timestep {t} out of range [0, {self.total_steps})")
        return float(self.alphas_cumprod[t])


def toy_schedule(total_steps: int = 50, start: float = 0.9999, end: float = 0.02) -> NoiseSchedule:
    """Linear abar ramp used throughout the toy experiments."""
    return NoiseSchedule(np.linspace(start, end, total_steps))


def ddim_add_noise(z0: np.ndarray, eps: np.ndarray, t: int,
                   schedule: NoiseSchedule) -> np.ndarray:
    """z_t = sqrt(abar_t) z0 + sqrt(1 - abar_t) eps."""
    z0, eps = matched_arrays(z0, eps, "z0", "eps")
    return _mix(z0, eps, schedule.abar(t))


def noised_latents(z0: np.ndarray, eps: np.ndarray, levels,
                   schedule: NoiseSchedule) -> np.ndarray:
    """``ddim_add_noise`` for a batch: ``eps`` is (C, *z0.shape) and
    ``levels`` holds C timesteps, which the caller has drawn in range. Latent
    c is bit for bit ``ddim_add_noise(z0, eps[c], levels[c], schedule)``."""
    ab = schedule.alphas_cumprod[levels].reshape(-1, *(1,) * z0.ndim)
    return _mix(z0, eps, ab)


def _mix(z0: np.ndarray, eps: np.ndarray, ab) -> np.ndarray:
    """sqrt(ab) z0 + sqrt(1 - ab) eps, for one level (a float) or one per
    latent of a batch (an array that broadcasts against ``eps``)."""
    out = np.sqrt(ab) * z0
    out += np.sqrt(1.0 - ab) * eps
    return out


def predict_clean(z_t: np.ndarray, eps_hat: np.ndarray, t: int,
                  schedule: NoiseSchedule) -> np.ndarray:
    """Invert the forward mix: zhat0 = (z_t - sqrt(1-abar_t) eps_hat) / sqrt(abar_t)."""
    z_t, eps_hat = matched_arrays(z_t, eps_hat, "z_t", "eps_hat")
    ab = schedule.abar(t)
    out = np.sqrt(1.0 - ab) * eps_hat
    np.subtract(z_t, out, out=out)
    out /= np.sqrt(ab)
    return out


def ddim_step(z_t: np.ndarray, eps_hat: np.ndarray, t: int, t_prev: int,
              schedule: NoiseSchedule) -> np.ndarray:
    """One deterministic (eta = 0) sampling step from level t to t_prev."""
    if t_prev >= t:
        raise ValueError(f"t_prev ({t_prev}) must be < t ({t})")
    out = predict_clean(z_t, eps_hat, t, schedule)
    ab_prev = schedule.abar(t_prev)
    out *= np.sqrt(ab_prev)
    out += np.sqrt(1.0 - ab_prev) * eps_hat
    return out


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

@dataclass
class _LayerWork:
    """Mutable working copy of a LayerSpec, for the loops that write its
    weights (learning's value refinement, gradcheck's differences)."""

    kind: str
    attn_type: str
    height: int
    width: int
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray


def workspace(params: DenoiserParams) -> "list[_LayerWork]":
    return [
        _LayerWork(l.kind, l.attn_type, l.height, l.width,
                   l.wq.copy(), l.wk.copy(), l.wv.copy())
        for l in params.layers
    ]


def params_from_workspace(dim: int, layers: "list[_LayerWork]") -> DenoiserParams:
    return DenoiserParams(dim, tuple(
        LayerSpec(l.kind, l.attn_type, l.height, l.width, l.wq, l.wk, l.wv)
        for l in layers
    ))


@dataclass
class LayerCache:
    work: "LayerSpec | _LayerWork"
    x: np.ndarray      # pooled latent features, (n_l, d), shared per resolution
    q: np.ndarray
    k: np.ndarray
    v: "np.ndarray | None"  # None where the caller reads no readout
    attn: np.ndarray   # raw softmax output, (n_l, targets), or the rows ``rows`` names
    rows: "np.ndarray | None" = None  # the map rows ``attn`` holds, in order; None: all


@dataclass
class ForwardCache:
    """Everything the hand-written backward pass needs.

    A layer at the grid's own resolution keeps a view of ``z`` as its
    features ``x``, so ``z`` must not be written while the cache is in use.

    ``readout_eps(cache, cache.maps())`` is the noise prediction of a plain
    pass. A synthesis pass keeps a self-attention layer's in-box rows alone
    (``LayerCache.rows``), and its readout masks in place the maps it keeps
    whole, the cross-attention maps: masked maps are no longer the softmax
    output, so ``backprop`` on the cache is stale.
    """

    z: np.ndarray          # (H, W, d)
    emb: np.ndarray        # (n_tokens, d)
    layers: "list[LayerCache]" = field(default_factory=list)
    # backprop's per-layer decisions by ``wrt``, made on the cache's first
    # backward pass for that ``wrt`` and read again by every later one: a
    # cache keeps its layers and its maps' shapes.
    backward: dict = field(default_factory=dict, repr=False, compare=False)

    def maps(self) -> "list[np.ndarray]":
        """The cached attention maps in layer order (the arrays themselves)."""
        return [lc.attn for lc in self.layers]


def _blocks(grid: np.ndarray, h: int, w: int) -> np.ndarray:
    """An (..., h, bh, w, bw, d) view of an (..., H, W, d) grid, one (bh, bw)
    block per cell of an h x w layer; ShapeError unless the extents divide.
    A sum over axes -4 and -2 pools the grid to the layer, and is the
    adjoint of replicating a layer output onto it. On a C-ordered grid the
    view is writable: adding an (h, 1, w, 1, d) array into it adds each
    cell's value to every grid cell of its block, with no full-grid
    temporary."""
    *lead, H, W, d = grid.shape
    if H % h or W % w:
        raise ShapeError(f"cannot pool {H}x{W} to {h}x{w}")
    return grid.reshape(*lead, h, H // h, w, W // w, d)


def _cell_sums(grid: np.ndarray, h: int, w: int) -> np.ndarray:
    """The sum over each block of ``_blocks(grid, h, w)``, as (..., h * w, d)
    rows. At the grid's own resolution the grid itself, reshaped, with no
    copy: the sum of a 1 x 1 block is its one value. With d >= 2 numpy's
    multi-axis sum adds a block's cells one after another in row-major
    order, one inner loop of d per grid cell, so one strided add per cell
    of a block, in that order, gives its bits; from 256 grid cells (batch
    included) up that costs less than the sum's loops. At d = 1 the sum
    adds a block row pairwise, and is kept."""
    *lead, H, W, d = grid.shape
    if (H, W) == (h, w):
        return grid.reshape(*lead, h * w, d)
    blocks = _blocks(grid, h, w)
    if d == 1 or grid.size < 256 * d:
        return blocks.sum(axis=(-4, -2)).reshape(*lead, h * w, d)
    acc = blocks[..., 0, :, 0, :] + 0.0  # numpy's sum starts at +0.0: -0.0 sums to +0.0
    for i in range(H // h):
        for j in range(W // w):
            if i or j:
                acc += blocks[..., i, :, j, :]
    return acc.reshape(*lead, h * w, d)


def _pool(grid: np.ndarray, h: int, w: int) -> np.ndarray:
    """Each block's mean as (..., h * w, d) rows: its sum divided by the
    block size, which is the arithmetic of ``np.mean``."""
    size = (grid.shape[-3] // h) * (grid.shape[-2] // w)
    sums = _cell_sums(grid, h, w)
    if size > 1:
        sums /= size
    return sums


class _WholeMap:
    """The plain forward pass's row plan: every row, its logits scaled
    after the product, as in a map of one row block, and written into
    ``attn`` as its softmax; nothing is read from the rows while they are
    hot."""

    rows = blocks = scratch = kept = None

    def __init__(self, attn: np.ndarray, scale: float):
        self.attn, self.scale = attn, scale

    def start(self, v: np.ndarray) -> None:
        pass

    def target(self, blk, buf) -> np.ndarray:
        return self.attn[blk]

    def read(self, blk, block, buf):
        block *= self.scale
        softmax_rows_inplace(block)

    def finish(self, results) -> np.ndarray:
        return self.attn


def _attention(q: np.ndarray, k: np.ndarray, scale: float, plan=None) -> np.ndarray:
    """softmax(scale q k^T) for (..., n, d) queries and (..., m, d) keys, or
    (m, d) keys shared by a batch. A map of one row block is computed
    inline, batch and all; a larger one runs one row block at a time
    (``map_row_blocks``), one latent after another.

    ``plan`` (one latent only) chooses the rows and where they go, and reads
    each block while it is hot. It has ``rows``, the map rows to compute
    (None: all), ``blocks``, the slices of them that make one task each
    (None: ``row_blocks(len(rows), m)``), and ``scratch`` for
    ``map_row_blocks``; in a block's task, ``target(blk, buf)`` is the
    array its logits are written to and ``read(blk, block, buf)`` takes
    them to the block's result, the softmax included; the caller's
    ``finish(results)``, given them in block order, returns what the pass
    keeps as the map. A given plan gets its queries scaled, once per pass:
    exactly the scaled logits when sqrt(d) is a power of two, as at d = 4
    and d = 16. The plain pass runs the plan ``_WholeMap``, which scales
    the logits itself: every row, into one whole map."""
    n, m = q.shape[-2], k.shape[-2]
    kt = k.swapaxes(-1, -2)
    if plan is None and n * m <= ROW_BLOCK:
        attn = np.matmul(q, kt)
        attn *= scale
        softmax_rows_inplace(attn.reshape(-1, m))
        return attn
    if plan is not None:
        return _row_softmax(q[0] * scale, kt[0] if kt.ndim == q.ndim else kt, plan)[None]
    attn = np.empty(q.shape[:-1] + (m,))
    for c in np.ndindex(q.shape[:-2]):
        _row_softmax(q[c], kt[c] if kt.ndim == q.ndim else kt, _WholeMap(attn[c], scale))
    return attn


def _row_softmax(q: np.ndarray, kt: np.ndarray, plan) -> np.ndarray:
    """One latent's map rows under ``plan`` (see ``_attention``): the logits
    of each row block and the plan's read of them, its softmax included, in
    one task."""
    rows = plan.rows

    def task(blk, buf=None):
        block = plan.target(blk, buf)
        np.matmul(q[blk if rows is None else rows[blk]], kt, out=block)
        return plan.read(blk, block, buf)

    n_rows = q.shape[0] if rows is None else rows.size
    return plan.finish(map_row_blocks(task, n_rows, kt.shape[1], plan.scratch, plan.blocks))


class FrozenLayer(NamedTuple):
    """One layer of a frozen pass: its batch arrays, None where
    ``iteration_cache`` computes the layer's own, and what that call needs
    of the layer, bound once per pass."""

    lc: "LayerCache"   # the layer's entry in the pass's cache
    x: np.ndarray      # (C, n_l, d) pooled features, shared per resolution
    q: np.ndarray
    k: "np.ndarray | None"     # keys shared by the batch are broadcast
    attn: "np.ndarray | None"  # (C, n_l, targets)
    v: "np.ndarray | None"
    cross: bool


@dataclass
class FrozenPass:
    """The part of C forward passes, over the same layers, that their
    latents and fixed weights settle: each resolution's pooled features and
    each layer's queries, and the keys, maps and values of the layers whose
    sources are fixed. Arrays carry the batch axis first.

    ``cache`` is the one forward cache that ``iteration_cache`` rewrites for
    whichever latent it is asked for, so a caller reads one latent's cache
    before it asks for the next."""

    z: np.ndarray                  # (C, H, W, d) latents
    scale: float                   # 1/sqrt(d), a float: no numpy scalar per call
    cache: "ForwardCache"
    layers: "list[FrozenLayer]" = field(default_factory=list)


def frozen_pass(z: np.ndarray, layers, emb: "np.ndarray | None" = None,
                values: bool = True, plans=None) -> FrozenPass:
    """The forward pass of a batch of latents ``z`` (C, H, W, d) as far as
    it does not depend on what the caller updates. Self-attention layers,
    which attend from the latent to itself, run to their maps, and to their
    values unless ``values`` is False; cross-attention layers do the same
    only when the embeddings ``emb`` are given (fixed), and otherwise stop
    at their queries. Latent c's arrays are bit for bit those of a pass on
    ``z[c]`` alone. ``plans`` maps a self-attention layer's index to its
    row plan (see ``_attention``), for a batch of one: the plan gets the
    layer's values (``plan.start(v)``) before its rows are computed."""
    out = FrozenPass(z, 1.0 / math.sqrt(z.shape[-1]), ForwardCache(z[0], emb))
    pooled: "dict[tuple[int, int], np.ndarray]" = {}  # one pool per resolution
    for li, work in enumerate(layers):
        plan = None if plans is None else plans.get(li)
        res = (work.height, work.width)
        x = pooled.get(res)
        if x is None:
            x = pooled[res] = _pool(z, *res)
        q = x @ work.wq
        cross = work.attn_type == CROSS
        src = emb if cross else x
        k = attn = v = None
        if src is not None:
            k = src @ work.wk
            if plan is not None:
                v = src @ work.wv
                plan.start(v[0])
            attn = _attention(q, k, out.scale, plan)
            if values and v is None:
                v = src @ work.wv
            if k.ndim == 2:  # the embeddings' keys and values serve the batch
                k = np.broadcast_to(k, (z.shape[0], *k.shape))
                v = None if v is None else np.broadcast_to(v, (z.shape[0], *v.shape))
        lc = LayerCache(work, None, None, None, None, None)
        out.cache.layers.append(lc)
        out.layers.append(FrozenLayer(lc, x, q, k, attn, v, cross))
    return out


def iteration_cache(frozen: FrozenPass, c: int, emb: np.ndarray,
                    values: bool = True) -> ForwardCache:
    """Latent c's forward cache: the frozen part, completed with the keys
    and maps of the cross-attention layers it left out (on ``emb``) and with
    the values it left out (on the layers' current ``wv``). With ``values``
    False no value is added: for a caller that reads no readout. The cache
    is ``frozen.cache``, its entries pointed at latent c's arrays: the call
    builds no object but the arrays it computes."""
    cache = frozen.cache
    cache.z = frozen.z[c]
    cache.emb = emb
    for lc, x, q, k, attn, v, cross in frozen.layers:
        lc.x = x = x[c]
        lc.q = q = q[c]
        if attn is None:  # a cross-attention map on the current embeddings
            lc.k = k = emb @ lc.work.wk
            lc.attn = _attention(q, k, frozen.scale)
        else:
            lc.k = k[c]
            lc.attn = attn[c]
        if v is not None:
            lc.v = v[c]
        elif values:
            lc.v = (emb if cross else x) @ lc.work.wv
        else:
            lc.v = None
    return cache


def forward_cache(z: np.ndarray, emb: np.ndarray, layers, plans=None) -> ForwardCache:
    """Raw-array forward pass retaining per-layer intermediates: the frozen
    part of a batch of one (the self-attention layers whole), completed by
    ``iteration_cache`` (the cross-attention layers on ``emb``). ``layers``
    are ``LayerSpec``s, or the ``workspace`` copies of a loop that writes
    its weights. A layer at the grid's own resolution takes ``z`` itself as
    its features (a view, when ``z`` is C-ordered). A map larger than one
    row block runs its logits and softmax one row block at a time
    (``map_row_blocks``). ``plans`` maps self-attention layer indices to
    row plans (synthesis's passes, see ``_attention``): such a layer's
    cached map is what its plan keeps, and its ``rows`` the plan's
    ``kept``, the map rows it holds (None: all)."""
    cache = iteration_cache(frozen_pass(z[None], layers, plans=plans), 0, emb)
    for li, plan in (plans or {}).items():
        cache.layers[li].rows = plan.kept
    return cache


def readout_eps(cache: ForwardCache, maps: "list[np.ndarray]") -> np.ndarray:
    """The noise prediction from (possibly modified) attention maps, reusing
    the cached values: the mean over layers of replicate(maps[l] @ V_l)."""
    return readout_from_outputs(
        cache, (attn @ lc.v for lc, attn in zip(cache.layers, maps)))


def readout_from_outputs(cache: ForwardCache, outputs) -> np.ndarray:
    """The noise prediction from each layer's output, an (n_l, d) array in
    layer order: the mean over layers of its replication onto the grid."""
    acc = np.zeros(cache.z.shape)
    for lc, out in zip(cache.layers, outputs):
        h, w = lc.work.height, lc.work.width
        blocks = _blocks(acc, h, w)
        blocks += out.reshape(h, 1, w, 1, -1)
    acc /= len(cache.layers)
    return acc


def record_from_maps(layers, maps: "list[np.ndarray]") -> AttentionRecord:
    """Validate raw maps into a record; ``layers`` are any layer objects
    carrying ``kind``, ``attn_type``, ``height`` and ``width``."""
    return AttentionRecord(tuple(
        LayerAttention(w.kind, w.attn_type, w.height, w.width, AttentionMap(m))
        for w, m in zip(layers, maps)
    ))


def _token_matrix(tokens: "list[TokenEmbedding]", dim: int) -> np.ndarray:
    if not tokens:
        raise ConfigurationError("need at least one token embedding")
    ids = [t.token_id for t in tokens]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("duplicate token ids")
    for t in tokens:
        if t.vector.size != dim:
            raise ShapeError(
                f"token {t.token_id} has dim {t.vector.size}, params expect {dim}"
            )
    return np.stack([t.vector for t in tokens])


def forward_denoise(z, t: int, tokens: "list[TokenEmbedding]",
                    params: DenoiserParams,
                    schedule: NoiseSchedule | None = None):
    """Predict the noise in z and report every layer's attention map.

    Returns (eps_hat, AttentionRecord). The timestep is validated against the
    schedule when one is supplied; the toy model's output does not otherwise
    depend on it.
    """
    z = checked_array(z, "z", ndim=3)
    if z.shape[2] != params.dim:
        raise ShapeError(f"z channels {z.shape[2]} != params dim {params.dim}")
    if schedule is not None:
        schedule.abar(t)  # range check
    elif t < 0:
        raise ValueError(f"timestep {t} must be >= 0")
    emb = _token_matrix(tokens, params.dim)
    cache = forward_cache(z, emb, params.layers)
    record = record_from_maps(params.layers, cache.maps())
    return readout_eps(cache, cache.maps()), record


# ---------------------------------------------------------------------------
# Structured-text serialization
# ---------------------------------------------------------------------------

def _matrix_lines(name: str, m: np.ndarray) -> "list[str]":
    lines = [f"{name} {m.shape[0]} {m.shape[1]}"]
    for row in m:
        lines.append(" ".join(fnum(v) for v in row))
    return lines


def _count_line(lines, pos: int, key: str) -> int:
    """The N of a '<key> N' line."""
    lineno, cells = line_fields(lines, pos, f"'{key} N'")
    if len(cells) != 2 or cells[0] != key:
        raise ValueError(f"line {lineno}: expected '{key} N', got {lines[pos][1]!r}")
    return parse_numbers(cells[1:], int, lineno)[0]


def _read_matrix(lines: "list[tuple[int, str]]", pos: int, name: str):
    lineno, head = line_fields(lines, pos, f"'{name} R C' header")
    if len(head) != 3 or head[0] != name:
        raise ValueError(f"line {lineno}: expected '{name} R C' header, got {lines[pos][1]!r}")
    r, c = parse_numbers(head[1:], int, lineno)
    rows = []
    for i in range(r):
        lineno, cells = line_fields(lines, pos + 1 + i, f"row {i} of matrix {name}")
        if len(cells) != c:
            raise ValueError(
                f"line {lineno}: matrix {name} row {i} has {len(cells)} values, expected {c}"
            )
        rows.append(parse_numbers(cells, float, lineno))
    return np.array(rows, dtype=np.float64).reshape(r, c), pos + 1 + r


def params_to_text(params: DenoiserParams) -> str:
    lines = ["denoiser-params v1", f"dim {params.dim}", f"layers {len(params.layers)}"]
    for i, l in enumerate(params.layers):
        lines.append(f"layer {i} {l.kind} {l.attn_type} {l.height} {l.width}")
        lines.extend(_matrix_lines("wq", l.wq))
        lines.extend(_matrix_lines("wk", l.wk))
        lines.extend(_matrix_lines("wv", l.wv))
    return "\n".join(lines) + "\n"


def params_from_text(text: str) -> DenoiserParams:
    lines = content_lines(text)
    if not lines or lines[0][1] != "denoiser-params v1":
        raise ValueError("not a denoiser-params v1 file")
    dim = _count_line(lines, 1, "dim")
    n_layers = _count_line(lines, 2, "layers")
    pos = 3
    specs = []
    for i in range(n_layers):
        lineno, head = line_fields(lines, pos, f"'layer {i}' header")
        if len(head) != 6 or head[:2] != ["layer", str(i)]:
            raise ValueError(
                f"line {lineno}: expected 'layer {i} KIND TYPE H W', got {lines[pos][1]!r}"
            )
        kind, attn_type = head[2], head[3]
        h, w = parse_numbers(head[4:], int, lineno)
        pos += 1
        wq, pos = _read_matrix(lines, pos, "wq")
        wk, pos = _read_matrix(lines, pos, "wk")
        wv, pos = _read_matrix(lines, pos, "wv")
        specs.append(LayerSpec(kind, attn_type, h, w, wq, wk, wv))
    return DenoiserParams(dim, tuple(specs))


def save_params(params: DenoiserParams, path: str) -> None:
    atomic_write_text(path, params_to_text(params))


def _load(path: str, parse):
    """Parse a text file, naming the path in any ValueError raised."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(text)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_params(path: str) -> DenoiserParams:
    return _load(path, params_from_text)


def tokens_to_text(tokens: "list[TokenEmbedding]") -> str:
    if not tokens:
        raise ConfigurationError("no tokens to serialize")
    dim = tokens[0].vector.size
    for t in tokens:
        if t.vector.size != dim:
            raise ShapeError(
                f"token {t.token_id} has dim {t.vector.size}, "
                f"token {tokens[0].token_id} has dim {dim}: one file holds one width"
            )
    lines = ["token-embeddings v1", f"dim {dim}", f"count {len(tokens)}"]
    for t in tokens:
        tag = "learnable" if t.learnable else "fixed"
        lines.append(f"token {t.token_id} {tag}")
        lines.append(" ".join(fnum(v) for v in t.vector))
    return "\n".join(lines) + "\n"


def tokens_from_text(text: str) -> "list[TokenEmbedding]":
    lines = content_lines(text)
    if not lines or lines[0][1] != "token-embeddings v1":
        raise ValueError("not a token-embeddings v1 file")
    dim = _count_line(lines, 1, "dim")
    count = _count_line(lines, 2, "count")
    tokens = []
    pos = 3
    for i in range(count):
        lineno, head = line_fields(lines, pos, f"header of token {i}")
        if len(head) != 3 or head[0] != "token" or head[2] not in ("learnable", "fixed"):
            raise ValueError(f"line {lineno}: bad token header {lines[pos][1]!r}")
        token_id = parse_numbers(head[1:2], int, lineno)[0]
        lineno, cells = line_fields(lines, pos + 1, f"vector of token {token_id}")
        vec = np.array(parse_numbers(cells, float, lineno), dtype=np.float64)
        if vec.size != dim:
            raise ValueError(
                f"line {lineno}: token {token_id}: expected {dim} values, got {vec.size}"
            )
        tokens.append(TokenEmbedding(token_id, vec, head[2] == "learnable"))
        pos += 2
    return tokens


def save_tokens(tokens: "list[TokenEmbedding]", path: str) -> None:
    atomic_write_text(path, tokens_to_text(tokens))


def load_tokens(path: str) -> "list[TokenEmbedding]":
    return _load(path, tokens_from_text)
