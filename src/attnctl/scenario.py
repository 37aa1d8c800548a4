"""Synthetic scenarios with a controllable degree of semantic entanglement,
plus the metrics (leakage, argmax IoU, PCA diagnostics) the harness reports.

A scenario plants N disjoint rectangular instances on the latent grid. The
instances' feature directions share a common component weighted by rho: at
rho = 0 they are orthogonal, at rho = 1 identical, so rho directly dials how
much instance semantics overlap.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import AttentionRecord, BinaryMask, mask_at
from .denoiser import TokenEmbedding
from .errors import ConfigurationError, DegenerateInputWarning, ShapeError
from .learning import InstanceSet
from .synthesis import BoxSpec, _leakage_from_maps


@dataclass(frozen=True)
class Scenario:
    height: int
    width: int
    dim: int
    rho: float
    seed: int
    noise_sigma: float
    masks: "tuple[BinaryMask, ...]"
    directions: np.ndarray       # (N, dim) unit instance directions
    background_dir: np.ndarray   # (dim,)
    z0: np.ndarray               # (height, width, dim) clean latent

    def __post_init__(self):
        for name in ("directions", "background_dir", "z0"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "masks", tuple(self.masks))

    @property
    def n_instances(self) -> int:
        return len(self.masks)

    def instance_set(self) -> InstanceSet:
        return InstanceSet(self.masks, tuple(range(1, self.n_instances + 1)))

    def boxes(self) -> "list[BoxSpec]":
        """Tight cell-extent bounding boxes of the instance masks."""
        out = []
        for m in self.masks:
            rows, cols = np.nonzero(m.bits)
            out.append(BoxSpec(
                x0=cols.min() / self.width,
                y0=rows.min() / self.height,
                x1=(cols.max() + 1) / self.width,
                y1=(rows.max() + 1) / self.height,
            ))
        return out


def _place_masks(height: int, width: int, n: int) -> "list[BinaryMask]":
    """N disjoint vertical-band rectangles with background left over."""
    r0, r1 = height // 4, (3 * height) // 4
    if r1 <= r0:
        r0, r1 = 0, height
    masks = []
    for i in range(n):
        c_start = round(i * width / n)
        c_end = round((i + 1) * width / n)
        band = c_end - c_start
        if band < 1:
            raise ConfigurationError(
                f"cannot place {n} disjoint instances on a width-{width} grid"
            )
        block = max(1, (3 * band) // 4)
        # Snap the block to an even column so instances stay intact under
        # factor-2 downsampling (no half-covered pooling cells).
        off = c_start + ((band - block) // 2 & ~1)
        bits = np.zeros((height, width), dtype=np.uint8)
        bits[r0:r1, off:off + block] = 1
        masks.append(BinaryMask(bits))
    for a in range(n):
        for b in range(a + 1, n):
            if masks[a].intersects(masks[b]):
                raise ConfigurationError(
                    f"cannot place {n} disjoint instances on a width-{width} grid"
                )
    union = BinaryMask.union(masks)
    if union.count >= height * width:
        raise ConfigurationError("no background cells left on the grid")
    return masks


def generate_scenario(extents: "tuple[int, int]" = (8, 8), n_instances: int = 2,
                      rho: float = 0.8, seed: int = 0, dim: int = 0,
                      noise_sigma: float = 0.1) -> Scenario:
    """Build a latent with N planted instances whose pairwise feature inner
    product equals rho. dim = 0 picks the smallest workable width."""
    height, width = extents
    if height < 2 or width < 2:
        raise ConfigurationError("extents must be at least 2x2")
    if n_instances < 1:
        raise ConfigurationError("n_instances: must be >= 1")
    if not 0.0 <= rho <= 1.0:
        raise ConfigurationError("rho: must lie in [0, 1]")
    if noise_sigma < 0.0:
        raise ConfigurationError("noise_sigma: must be >= 0")
    needed = n_instances + 2  # instance axes + common axis + background axis
    if dim == 0:
        dim = max(4, needed)
    if dim < needed:
        raise ConfigurationError(
            f"dim {dim} too small for {n_instances} instances (need >= {needed})"
        )

    masks = _place_masks(height, width, n_instances)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, needed))
    q, r = np.linalg.qr(raw)
    q = q * np.sign(np.diag(r))[None, :]  # deterministic sign convention
    axes = q.T  # rows orthonormal
    common = axes[n_instances]
    directions = np.sqrt(1.0 - rho) * axes[:n_instances] + np.sqrt(rho) * common
    # The background carries the same shared component, so at high rho the
    # instances entangle with the whole scene, not just with each other.
    background = np.sqrt(1.0 - rho) * axes[n_instances + 1] + np.sqrt(rho) * common

    z0 = np.tile(background, (height, width, 1))
    for i, m in enumerate(masks):
        z0[m.bits == 1] = directions[i]
    z0 = z0 + noise_sigma * rng.standard_normal(z0.shape)

    return Scenario(height=height, width=width, dim=dim, rho=rho, seed=seed,
                    noise_sigma=noise_sigma, masks=tuple(masks),
                    directions=directions, background_dir=background, z0=z0)


def synthesis_tokens(scenario: Scenario, gain: float = 2.0) -> "list[TokenEmbedding]":
    """Ready-made embeddings for standalone synthesis runs: a zero background
    token plus one scaled direction token per instance."""
    tokens = [TokenEmbedding(0, np.zeros(scenario.dim), learnable=False)]
    for i in range(scenario.n_instances):
        tokens.append(TokenEmbedding(i + 1, gain * scenario.directions[i],
                                     learnable=True))
    return tokens


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def leakage_mass(record: AttentionRecord, token_id: int, mask: BinaryMask) -> float:
    """Share of the token's attention mass that falls outside the mask,
    averaged over decoder cross-attention layers. Zero total mass reads as
    full leakage (1.0) with a diagnostic."""
    layers = record.gated_cross()
    if not layers:
        raise ConfigurationError("record has no decoder cross-attention layer")
    for layer in layers:
        if not 0 <= token_id < layer.amap.cols:
            raise ConfigurationError(f"token id {token_id} absent from record")
    at_res = {(l.height, l.width): mask_at(mask, l.height, l.width) for l in layers}
    return _leakage_from_maps(record.layers, record.maps(), [at_res], [[token_id]])[0]


def argmax_iou_single(record: AttentionRecord, token_id: int,
                      mask: BinaryMask) -> float:
    """IoU between a mask and the region where the token wins the per-pixel
    argmax, averaged over decoder cross-attention layers."""
    layers = record.gated_cross()
    if not layers:
        raise ConfigurationError("record has no decoder cross-attention layer")
    vals = []
    for layer in layers:
        if not 0 <= token_id < layer.amap.cols:
            raise ConfigurationError(f"token id {token_id} absent from record")
        m = mask_at(mask, layer.height, layer.width).flat() > 0.5
        region = np.argmax(layer.amap.weights, axis=1) == token_id
        union = np.logical_or(region, m).sum()
        inter = np.logical_and(region, m).sum()
        vals.append(float(inter) / float(union) if union else 0.0)
    return float(np.mean(vals))


def attention_argmax_iou(record: AttentionRecord,
                         instances: InstanceSet) -> "list[float]":
    """Per-instance argmax IoU (see argmax_iou_single)."""
    return [
        argmax_iou_single(record, token, instances.masks[i])
        for i, token in enumerate(instances.placeholder_ids)
    ]


def pca_project(features, n_components: int = 2) -> np.ndarray:
    """Project rows onto their top principal components.

    Eigenvectors of the (d x d) scatter matrix, largest eigenvalue first,
    each signed so that its largest-magnitude entry is positive. Components
    whose eigenvalue is at most 1e-12 of the trace lie beyond the effective
    rank and come back as zero columns with a diagnostic.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError("features: expected a nonempty (n, d) array")
    if not np.all(np.isfinite(x)):
        raise ValueError("features: non-finite values")
    if not 1 <= n_components <= x.shape[1]:
        raise ConfigurationError("n_components: must lie in [1, feature dim]")
    xc = x - x.mean(axis=0, keepdims=True)
    cov = xc.T @ xc
    scale = max(float(np.trace(cov)), 1.0)
    lam, vecs = np.linalg.eigh(cov)  # ascending eigenvalues
    lam = lam[::-1][:n_components]
    comps = vecs[:, ::-1][:, :n_components].copy()
    cols = np.arange(n_components)
    comps[:, comps[np.argmax(np.abs(comps), axis=0), cols] < 0] *= -1.0
    rank = int(np.count_nonzero(lam > 1e-12 * scale))
    if rank < n_components:
        warnings.warn(
            f"rank-deficient features: components {rank}.. are zero-filled",
            DegenerateInputWarning, stacklevel=2,
        )
        comps[:, rank:] = 0.0
    return xc @ comps
