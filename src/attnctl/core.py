"""Attention-map and binary-mask primitives shared by every stage.

All numeric state is float64 numpy. Constructed objects are immutable: arrays
are copied and marked read-only, so a map or mask can be shared between the
learning loop, the synthesis loop, and the metrics code without defensive
copies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResampleError, ShapeError

# Layer tags. Losses and metrics gate on these: only decoder-tagged layers
# participate in attention losses and leakage readings.
ENCODER = "encoder"
DECODER = "decoder"
CROSS = "CA"
SELF = "SA"

ROW_SUM_TOL = 1e-6


def _as_float_array(values, name: str, ndim: int | None = None) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ShapeError(f"{name}: expected {ndim}-D array, got {arr.ndim}-D")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: contains non-finite values")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=arr.dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class AttentionMap:
    """Row-stochastic attention weights.

    Rows index attending positions (flattened pixels); columns index targets
    (tokens for cross attention, pixels for self attention). Every row sums to
    one within ROW_SUM_TOL and all weights lie in [0, 1].
    """

    weights: np.ndarray

    def __post_init__(self):
        w = _as_float_array(self.weights, "AttentionMap.weights", ndim=2)
        if w.shape[0] < 1 or w.shape[1] < 1:
            raise ShapeError("AttentionMap.weights: must be nonempty")
        if np.any(w < -1e-12) or np.any(w > 1.0 + 1e-12):
            raise ValueError("AttentionMap.weights: entries outside [0, 1]")
        sums = w.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
            worst = float(np.max(np.abs(sums - 1.0)))
            raise ValueError(
                f"AttentionMap.weights: row sums deviate from 1 by {worst:.3e}"
            )
        object.__setattr__(self, "weights", _freeze(w))

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
        object.__setattr__(self, "bits", _freeze(b.astype(np.uint8)))

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
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("BinaryMask.from_text: empty input")
        head = lines[0].split()
        if len(head) != 2:
            raise ValueError("BinaryMask.from_text: header must be 'H W'")
        try:
            h, w = int(head[0]), int(head[1])
        except ValueError as exc:
            raise ValueError("BinaryMask.from_text: non-integer header") from exc
        if h < 1 or w < 1 or len(lines) != h + 1:
            raise ValueError("BinaryMask.from_text: header/body mismatch")
        rows = []
        for ln in lines[1:]:
            cells = ln.split()
            if len(cells) != w or any(c not in ("0", "1") for c in cells):
                raise ValueError(f"BinaryMask.from_text: bad row {ln!r}")
            rows.append([int(c) for c in cells])
        return BinaryMask(np.array(rows, dtype=np.uint8))


def softmax_rows(logits) -> AttentionMap:
    """Row-wise softmax with max-subtraction for stability."""
    z = _as_float_array(logits, "logits", ndim=2)
    return AttentionMap(softmax_rows_raw(z))


def softmax_rows_raw(z: np.ndarray) -> np.ndarray:
    """Softmax on a raw array, skipping AttentionMap construction.

    Loop-internal fast path; callers guarantee a finite 2-D float input.
    """
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def scaled_dot_attention(queries, keys) -> AttentionMap:
    """softmax(Q K^T / sqrt(d)) for Q:(S,d), K:(T,d)."""
    q = _as_float_array(queries, "queries", ndim=2)
    k = _as_float_array(keys, "keys", ndim=2)
    if q.shape[1] != k.shape[1]:
        raise ShapeError(
            f"query dim {q.shape[1]} does not match key dim {k.shape[1]}"
        )
    if q.shape[1] < 1:
        raise ShapeError("feature dimension must be >= 1")
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
        if self.kind not in (ENCODER, DECODER):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.attn_type not in (CROSS, SELF):
            raise ValueError(f"unknown attention type {self.attn_type!r}")
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

    def gated_self(self) -> "list[LayerAttention]":
        return [self.layers[i] for i in gated_layers(self.layers, SELF)]

    def maps(self) -> "list[np.ndarray]":
        """Every layer's weights, in layer order: the raw-array form the
        loop kernels take."""
        return [l.amap.weights for l in self.layers]
