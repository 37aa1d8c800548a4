"""Attention-map and binary-mask primitives shared by every stage.

All numeric state is float64 numpy. Constructed objects are immutable: arrays
are copied and marked read-only, so a map or mask can be shared between the
learning loop, the synthesis loop, and the metrics code without defensive
copies.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ResampleError, ShapeError
from .fileio import content_lines, line_fields, parse_numbers

# Layer tags. Losses and metrics gate on these: only decoder-tagged layers
# participate in attention losses and leakage readings.
ENCODER = "encoder"
DECODER = "decoder"
CROSS = "CA"
SELF = "SA"

ROW_SUM_TOL = 1e-6
ROW_BLOCK = 1 << 17  # entries in one row block of a map (1 MiB of float64)


@functools.lru_cache(maxsize=256)
def row_blocks(n_rows: int, n_cols: int) -> "tuple[slice, ...]":
    """Consecutive slices covering range(n_rows), each of at least one row
    and at most ROW_BLOCK entries of an n_cols-wide array. The kernels that
    walk a 64x64 grid's self-attention map use them to bound their
    temporaries; a map of up to ROW_BLOCK entries is one block. Blocks
    write disjoint rows, so ``map_row_blocks`` may run them at once: the
    forward logits and softmax and the masked readout's raw ``A V`` do.
    Cached: the learning loop asks for the same few shapes thousands of
    times."""
    step = max(1, ROW_BLOCK // n_cols)
    return tuple(slice(start, min(start + step, n_rows))
                 for start in range(0, n_rows, step))


_pool_lock = threading.Lock()
_pool: "ThreadPoolExecutor | None" = None


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _row_pool() -> "ThreadPoolExecutor":
    """The process's row-block workers, one per CPU, created on first use.
    concurrent.futures is imported here, so a process that never needs the
    workers does not pay for the import."""
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_cpu_count(),
                                       thread_name_prefix="attnctl-rows")
        return _pool


def map_row_blocks(fn, n_rows: int, n_cols: int) -> list:
    """``[fn(blk) for blk in row_blocks(n_rows, n_cols)]``, the results in
    block order. A map of one block, or a process on one CPU, runs inline;
    otherwise the blocks run on the row-block workers. Numpy releases the
    interpreter lock in its products and ufuncs, so blocks overlap, and as
    each block computes its own rows with the same calls the results are
    bit-identical to the inline run. Rules for ``fn``:

    - write only into arrays the calling thread allocated (a worker's own
      large temporaries would grow its malloc arena, and the peak memory);
    - call no function that the benchmark's tracer wraps
      (``perfbench/spans.py``): its span stack is not thread-safe;
    - raise no warning: a degenerate case goes back in its result, and the
      caller warns;
    - not call ``map_row_blocks``: a worker waiting on its own pool can
      deadlock it.

    A caller that reduces across blocks adds the results in block order."""
    blocks = row_blocks(n_rows, n_cols)
    if len(blocks) == 1:  # the learning loop's maps: keep the call cheap
        return [fn(blocks[0])]
    if _cpu_count() == 1:
        return [fn(blk) for blk in blocks]
    return list(_row_pool().map(fn, blocks))


def checked_array(values, name: str, ndim: int | None = None) -> np.ndarray:
    """``values`` as a float64 array, not copied when it is one: nonempty and
    of rank ``ndim`` when given (else ShapeError), finite (else ValueError)."""
    arr = np.asarray(values, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ShapeError(f"{name}: expected {ndim}-D array, got {arr.ndim}-D")
    if arr.size == 0:
        raise ShapeError(f"{name}: empty array of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: contains non-finite values")
    return arr


def check_finite_fields(config) -> None:
    """Raise ConfigurationError naming the first numeric field of the
    dataclass ``config`` that is nan or infinite."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ConfigurationError(f"{f.name}: must be a finite number, got {value!r}")


def frozen_array(values, name: str, ndim: int | None = None) -> np.ndarray:
    """A read-only copy of ``checked_array(values, name, ndim)``."""
    out = np.array(checked_array(values, name, ndim), copy=True)
    out.setflags(write=False)
    return out


def matched_arrays(a, b, name_a: str, name_b: str) -> "tuple[np.ndarray, np.ndarray]":
    """``a`` and ``b`` as float64 arrays, checked to share one shape (ShapeError)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"{name_a} shape {a.shape} != {name_b} shape {b.shape}")
    return a, b


def check_layer_tags(kind: str, attn_type: str) -> None:
    """ConfigurationError unless the tags are ENCODER/DECODER and CROSS/SELF."""
    if kind not in (ENCODER, DECODER):
        raise ConfigurationError(f"unknown layer kind {kind!r}")
    if attn_type not in (CROSS, SELF):
        raise ConfigurationError(f"unknown attention type {attn_type!r}")


def check_tokens(tokens, cols: int) -> None:
    """ConfigurationError unless every token id names one of ``cols`` columns."""
    for token in tokens:
        if not 0 <= token < cols:
            raise ConfigurationError(f"token id {token} absent: only {cols} token columns")


@dataclass(frozen=True)
class AttentionMap:
    """Row-stochastic attention weights.

    Rows index attending positions (flattened pixels); columns index targets
    (tokens for cross attention, pixels for self attention). Every row sums to
    one within ROW_SUM_TOL and all weights lie in [0, 1].
    """

    weights: np.ndarray

    def __post_init__(self):
        w = frozen_array(self.weights, "AttentionMap.weights", ndim=2)
        if np.any(w < -1e-12) or np.any(w > 1.0 + 1e-12):
            raise ValueError("AttentionMap.weights: entries outside [0, 1]")
        sums = w.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
            worst = float(np.max(np.abs(sums - 1.0)))
            raise ValueError(
                f"AttentionMap.weights: row sums deviate from 1 by {worst:.3e}"
            )
        object.__setattr__(self, "weights", w)

    @property
    def rows(self) -> int:
        return self.weights.shape[0]

    @property
    def cols(self) -> int:
        return self.weights.shape[1]

    def column(self, j: int) -> np.ndarray:
        if not 0 <= j < self.cols:
            raise ShapeError(f"column index {j} out of range for {self.cols} targets")
        return self.weights[:, j]


@dataclass(frozen=True)
class BinaryMask:
    """A {0,1} grid with explicit extents, serializable as plain text."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2 or b.shape[0] < 1 or b.shape[1] < 1:
            raise ShapeError("BinaryMask.bits: expected a nonempty 2-D grid")
        if not np.all((b == 0) | (b == 1)):
            raise ValueError("BinaryMask.bits: entries must be 0 or 1")
        bits = b.astype(np.uint8)
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def count(self) -> int:
        """Number of set cells."""
        return int(self.bits.sum())

    def is_empty(self) -> bool:
        return self.count == 0

    def flat(self) -> np.ndarray:
        """Row-major float view, shape (height*width,)."""
        return self.bits.reshape(-1).astype(np.float64)

    def intersects(self, other: "BinaryMask") -> bool:
        self._check_same_extent(other)
        return bool(np.any(self.bits & other.bits))

    def _check_same_extent(self, other: "BinaryMask") -> None:
        if (self.height, self.width) != (other.height, other.width):
            raise ShapeError(
                f"mask extents differ: {self.height}x{self.width} vs "
                f"{other.height}x{other.width}"
            )

    @staticmethod
    def union(masks: "list[BinaryMask]") -> "BinaryMask":
        if not masks:
            raise ShapeError("BinaryMask.union: need at least one mask")
        acc = masks[0].bits.astype(np.uint8)
        for m in masks[1:]:
            masks[0]._check_same_extent(m)
            acc = acc | m.bits
        return BinaryMask(acc)

    def to_text(self) -> str:
        """Serialize: a 'H W' header line, then H lines of W 0/1 digits."""
        lines = [f"{self.height} {self.width}"]
        for row in self.bits:
            lines.append(" ".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "BinaryMask":
        """Parse ``to_text`` output; errors name the offending line."""
        lines = content_lines(text)
        lineno, head = line_fields(lines, 0, "'H W' header")
        if len(head) != 2:
            raise ValueError(f"line {lineno}: expected 'H W' header, got {lines[0][1]!r}")
        h, w = parse_numbers(head, int, lineno)
        if h < 1 or w < 1:
            raise ValueError(f"line {lineno}: mask extents must be positive")
        rows = []
        for i in range(h):
            lineno, cells = line_fields(lines, 1 + i, f"mask row {i}")
            if len(cells) != w or any(c not in ("0", "1") for c in cells):
                raise ValueError(f"line {lineno}: mask row {i} must hold {w} 0/1 values")
            rows.append([int(c) for c in cells])
        if len(lines) > h + 1:
            raise ValueError(f"line {lines[h + 1][0]}: mask has more than {h} rows")
        return BinaryMask(np.array(rows, dtype=np.uint8))


def softmax_rows(logits) -> AttentionMap:
    """Row-wise softmax with max-subtraction for stability."""
    z = checked_array(logits, "logits", ndim=2).copy()
    return AttentionMap(softmax_rows_inplace(z))


NARROW_COLS = 8  # below this width softmax reduces column by column


def softmax_rows_inplace(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction, written over ``z`` and
    returned; callers pass a finite 2-D float64 array they own. A map
    narrower than NARROW_COLS (a cross-attention map of a few tokens)
    takes its row maxima and sums column by column, in column order: numpy
    reduces rows that short in the same order, so the result is
    bit-identical, without the reduction's per-row overhead."""
    width = z.shape[1]
    if width < NARROW_COLS:
        cols = z.T  # cols[j] is column j, a view
        acc = cols[0].copy()
        for j in range(1, width):
            np.maximum(acc, cols[j], out=acc)
        per_row = acc[:, None]
        z -= per_row
        np.exp(z, out=z)
        acc[:] = cols[0]
        for j in range(1, width):
            acc += cols[j]
        z /= per_row
        return z
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def scaled_dot_attention(queries, keys) -> AttentionMap:
    """softmax(Q K^T / sqrt(d)) for Q:(S,d), K:(T,d)."""
    q = checked_array(queries, "queries", ndim=2)
    k = checked_array(keys, "keys", ndim=2)
    if q.shape[1] != k.shape[1]:
        raise ShapeError(
            f"query dim {q.shape[1]} does not match key dim {k.shape[1]}"
        )
    logits = q @ k.T / np.sqrt(q.shape[1])
    return softmax_rows(logits)


def downsample_mask(mask: BinaryMask, height: int, width: int) -> BinaryMask:
    """Block-average a mask to a coarser grid; blocks with mean >= 0.5 are set.

    Extents must divide evenly, otherwise a ResampleError is raised.
    """
    if height < 1 or width < 1:
        raise ResampleError("target extents must be positive")
    if mask.height % height or mask.width % width:
        raise ResampleError(
            f"cannot downsample {mask.height}x{mask.width} to {height}x{width}: "
            "extents do not divide evenly"
        )
    bh, bw = mask.height // height, mask.width // width
    blocks = mask.bits.reshape(height, bh, width, bw).astype(np.float64)
    means = blocks.mean(axis=(1, 3))
    return BinaryMask((means >= 0.5).astype(np.uint8))


def mask_at(mask: BinaryMask, height: int, width: int) -> BinaryMask:
    """An instance mask carried to a layer's resolution: the mask itself when
    the extents match, its block-mean downsample otherwise."""
    if (mask.height, mask.width) == (height, width):
        return mask
    return downsample_mask(mask, height, width)


def resample_mask_nearest(mask: BinaryMask, height: int, width: int) -> BinaryMask:
    """Nearest-neighbor resample to arbitrary extents (used to carry refined
    masks across layer resolutions; block-mean downsample_mask is the rule for
    instance masks)."""
    if height < 1 or width < 1:
        raise ResampleError("target extents must be positive")
    rows = (np.arange(height) * mask.height) // height
    cols = (np.arange(width) * mask.width) // width
    return BinaryMask(mask.bits[np.ix_(rows, cols)])


@dataclass(frozen=True)
class LayerAttention:
    """One layer's attention map plus its routing tags and grid extents."""

    kind: str       # ENCODER or DECODER
    attn_type: str  # CROSS or SELF
    height: int
    width: int
    amap: AttentionMap

    def __post_init__(self):
        check_layer_tags(self.kind, self.attn_type)
        if self.height * self.width != self.amap.rows:
            raise ShapeError(
                f"map rows {self.amap.rows} != grid {self.height}x{self.width}"
            )
        if self.attn_type == SELF and self.amap.cols != self.amap.rows:
            raise ShapeError("self-attention map must be square")


def gated_layers(layers, attn_type: str) -> "list[int]":
    """Indices of the decoder layers of one attention type (CROSS or SELF),
    the layers that losses and metrics gate on. Any layer objects carrying
    ``kind`` and ``attn_type`` will do."""
    return [i for i, l in enumerate(layers)
            if l.kind == DECODER and l.attn_type == attn_type]


@dataclass(frozen=True)
class AttentionRecord:
    """All attention maps from one forward pass, in layer order."""

    layers: tuple[LayerAttention, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ShapeError("AttentionRecord: needs at least one layer")

    def gated_cross(self) -> "list[LayerAttention]":
        """Decoder cross-attention layers — the ones losses/metrics gate on."""
        return [self.layers[i] for i in gated_layers(self.layers, CROSS)]

    def token_layers(self, tokens) -> "list[LayerAttention]":
        """The decoder cross-attention layers, after checking that there is
        one and that every token id names a column of each of them."""
        layers = self.gated_cross()
        if not layers:
            raise ConfigurationError("record has no decoder cross-attention layer")
        for layer in layers:
            check_tokens(tokens, layer.amap.cols)
        return layers

    def gated_self(self) -> "list[LayerAttention]":
        return [self.layers[i] for i in gated_layers(self.layers, SELF)]

    def maps(self) -> "list[np.ndarray]":
        """Every layer's weights, in layer order: the raw-array form the
        loop kernels take."""
        return [l.amap.weights for l in self.layers]
