"""A deliberately small attention-only denoiser and deterministic DDIM steps.

The model exists to give the control losses something real to differentiate
through, not to denoise well. Per layer, the latent grid is block-averaged to
the layer resolution, projected to queries, and attended against either token
embeddings (cross attention) or itself (self attention):

    X = blockmean(z) @ Wq ...    A = softmax(Q K^T / sqrt(d)),   O = A V

The noise prediction is the mean over layers of each layer's output replicated
back to the full grid. ``forward_cache`` keeps the attention maps and values,
and ``readout_eps`` reads the prediction out of given maps: the cached ones,
or, in synthesis, the same maps once masked. ``readout_from_outputs`` reads
it out of given layer outputs, which synthesis's masked readout computes
without masking the self-attention map. Keys and values of
cross-attention layers depend only on the token embeddings, never on the
timestep; the whole forward pass is in fact timestep-independent, which keeps
hand-written gradients tractable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CROSS,
    DECODER,
    ENCODER,
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
    ab = schedule.abar(t)
    return np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps


def predict_clean(z_t: np.ndarray, eps_hat: np.ndarray, t: int,
                  schedule: NoiseSchedule) -> np.ndarray:
    """Invert the forward mix: zhat0 = (z_t - sqrt(1-abar_t) eps_hat) / sqrt(abar_t)."""
    z_t, eps_hat = matched_arrays(z_t, eps_hat, "z_t", "eps_hat")
    ab = schedule.abar(t)
    return (z_t - np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(ab)


def ddim_step(z_t: np.ndarray, eps_hat: np.ndarray, t: int, t_prev: int,
              schedule: NoiseSchedule) -> np.ndarray:
    """One deterministic (eta = 0) sampling step from level t to t_prev."""
    if t_prev >= t:
        raise ValueError(f"t_prev ({t_prev}) must be < t ({t})")
    zhat0 = predict_clean(z_t, eps_hat, t, schedule)
    ab_prev = schedule.abar(t_prev)
    return np.sqrt(ab_prev) * zhat0 + np.sqrt(1.0 - ab_prev) * eps_hat


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
    v: np.ndarray
    attn: np.ndarray   # raw softmax output, (n_l, targets)


@dataclass
class ForwardCache:
    """Everything the hand-written backward pass needs.

    A layer at the grid's own resolution keeps a view of ``z`` as its
    features ``x``, so ``z`` must not be written while the cache is in use.

    ``readout_eps(cache, cache.maps())`` is the noise prediction. Synthesis
    masks the cached maps in place once it has read them raw (the
    cross-attention maps on every masked step, the self-attention maps on a
    mask refresh): from then on they are no longer the softmax output, so
    ``backprop`` on the cache is stale.
    """

    z: np.ndarray          # (H, W, d)
    emb: np.ndarray        # (n_tokens, d)
    layers: "list[LayerCache]" = field(default_factory=list)

    def maps(self) -> "list[np.ndarray]":
        """The cached attention maps in layer order (the arrays themselves)."""
        return [lc.attn for lc in self.layers]


def _blocks(grid: np.ndarray, h: int, w: int) -> np.ndarray:
    """An (h, bh, w, bw, d) view of an (H, W, d) grid, one (bh, bw) block
    per cell of an h x w layer; ShapeError unless the extents divide. A mean
    over axes 1 and 3 pools the grid to the layer, a sum is the adjoint of
    replicating a layer output onto it. On a C-ordered grid the view is
    writable: adding an (h, 1, w, 1, d) array into it adds each cell's value
    to every grid cell of its block, with no full-grid temporary."""
    H, W, d = grid.shape
    if H % h or W % w:
        raise ShapeError(f"cannot pool {H}x{W} to {h}x{w}")
    return grid.reshape(h, H // h, w, W // w, d)


def forward_cache(z: np.ndarray, emb: np.ndarray, layers) -> ForwardCache:
    """Raw-array forward pass retaining per-layer intermediates. ``layers``
    are ``LayerSpec``s, or the ``workspace`` copies of a loop that writes
    its weights. A layer at the grid's own resolution takes ``z`` itself as
    its features (a view, when ``z`` is C-ordered). Each map's logits and
    softmax run one row block at a time (``map_row_blocks``)."""
    d = z.shape[2]
    cache = ForwardCache(z=z, emb=emb)
    scale = 1.0 / math.sqrt(d)  # a float: no numpy scalar per call
    pooled: "dict[tuple[int, int], np.ndarray]" = {}  # one pool per resolution
    for work in layers:
        res = (work.height, work.width)
        x = pooled.get(res)
        if x is None:
            x = pooled[res] = _cell_rows(z, *res, np.ndarray.mean)
        q = x @ work.wq
        if work.attn_type == CROSS:
            src = emb
        else:
            src = x
        k = src @ work.wk
        v = src @ work.wv
        attn = np.empty((q.shape[0], k.shape[0]))

        def logits_softmax(blk):
            block = attn[blk]
            np.matmul(q[blk], k.T, out=block)
            block *= scale
            softmax_rows_inplace(block)

        map_row_blocks(logits_softmax, *attn.shape)
        cache.layers.append(LayerCache(work, x, q, k, v, attn))
    return cache


def _cell_rows(grid: np.ndarray, h: int, w: int, reduce) -> np.ndarray:
    """``reduce`` (``np.ndarray.mean`` or ``np.ndarray.sum``) over each
    block of ``_blocks(grid, h, w)``, as (h * w, d) rows. At the grid's own
    resolution the grid itself, reshaped, with no copy: either reduction of
    a 1 x 1 block is its one value."""
    if grid.shape[:2] == (h, w):
        return grid.reshape(h * w, -1)
    return reduce(_blocks(grid, h, w), axis=(1, 3)).reshape(h * w, -1)


def readout_eps(cache: ForwardCache, maps: "list[np.ndarray]") -> np.ndarray:
    """The noise prediction from (possibly modified) attention maps, reusing
    the cached values: the mean over layers of replicate(maps[l] @ V_l)."""
    return readout_from_outputs(
        cache, (attn @ lc.v for lc, attn in zip(cache.layers, maps)))


def readout_from_outputs(cache: ForwardCache, outputs) -> np.ndarray:
    """The noise prediction from each layer's output, an (n_l, d) array in
    layer order: the mean over layers of its replication onto the grid."""
    acc = np.zeros_like(cache.z, order="C")
    for lc, out in zip(cache.layers, outputs):
        h, w = lc.work.height, lc.work.width
        blocks = _blocks(acc, h, w)
        blocks += out.reshape(h, 1, w, 1, -1)
    return acc / len(cache.layers)


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
