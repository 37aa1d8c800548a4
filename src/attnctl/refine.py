"""Cluster-based mask refinement.

Coarse per-instance masks are read off the cross-attention maps (group-column
average, box blur, min-max normalize, threshold); sketches of the masked
self-attention rows are clustered with plain Lloyd's K-means; each cluster
is assigned to the instance whose coarse mask covers enough of it. The
union of a given instance's clusters becomes its refined mask. A sketch is
a masked row times one fixed n x r Gaussian matrix (``sapass.sketch_basis``):
random projections keep pairwise distances (Johnson-Lindenstrauss).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import CROSS, BinaryMask, check_tokens, checked_array, gated_layers, row_blocks
from .errors import ConfigurationError, DegenerateInputWarning, ShapeError

KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-8       # converged once no center coordinate moves by more


@dataclass
class RefinementConfig:
    enabled: bool = True
    smoothing: int = 1          # box-blur radius for the CA maps
    sigma_noun: float = 0.3     # threshold on the normalized CA map
    sigma_cluster: float = 0.5  # minimum cluster-overlap ratio

    def validate(self) -> None:
        if self.smoothing < 0:
            raise ConfigurationError("smoothing: must be >= 0")
        if not 0.0 <= self.sigma_noun <= 1.0:
            raise ConfigurationError("sigma_noun: must lie in [0, 1]")
        if not 0.0 < self.sigma_cluster <= 1.0:
            raise ConfigurationError("sigma_cluster: must lie in (0, 1]")


def box_blur(grid: np.ndarray, radius: int) -> np.ndarray:
    """Mean filter with an edge-truncated window (window shrinks at borders)."""
    if radius < 0:
        raise ConfigurationError("radius: must be >= 0")
    if radius == 0:
        return grid.copy()
    h, w = grid.shape
    # Summed-area table with a zero first row and column: the sum over
    # rows [r0, r1) and columns [c0, c1) is S[r1,c1] - S[r0,c1] - S[r1,c0] + S[r0,c0].
    sat = np.zeros((h + 1, w + 1))
    np.cumsum(np.cumsum(grid, axis=0, dtype=np.float64), axis=1, out=sat[1:, 1:])
    r0 = np.maximum(np.arange(h) - radius, 0)
    r1 = np.minimum(np.arange(h) + radius + 1, h)
    c0 = np.maximum(np.arange(w) - radius, 0)
    c1 = np.minimum(np.arange(w) + radius + 1, w)
    sums = (sat[np.ix_(r1, c1)] - sat[np.ix_(r0, c1)]
            - sat[np.ix_(r1, c0)] + sat[np.ix_(r0, c0)])
    return sums / np.outer(r1 - r0, c1 - c0)


def compute_ca_masks(layers, maps, groups, smoothing: int,
                     sigma_noun: float) -> "list[BinaryMask]":
    """Coarse instance masks from the gated cross-attention maps.

    ``layers`` are the layer objects (tags and extents) and ``maps`` their
    attention weights as raw arrays, in layer order; a record passes
    ``record.layers`` and ``record.maps()``. Per instance: average the
    group's token columns over all decoder CA layers, blur, min-max
    normalize, then keep cells >= sigma_noun. A constant map cannot be
    normalized and yields an all-zero mask plus a diagnostic.
    """
    ca_idx = gated_layers(layers, CROSS)
    if not ca_idx:
        raise ConfigurationError("record has no decoder cross-attention layer")
    extents = {(layers[li].height, layers[li].width) for li in ca_idx}
    if len(extents) != 1:
        raise ConfigurationError(
            "gated cross-attention layers disagree on resolution"
        )
    h, w = next(iter(extents))
    out = []
    for group in groups:
        if not group:
            raise ConfigurationError("token group must be nonempty")
        acc = np.zeros((h, w))
        for li in ca_idx:
            check_tokens(group, maps[li].shape[1])
            for token in group:
                acc += maps[li][:, token].reshape(h, w)
        acc /= len(ca_idx) * len(group)
        acc = box_blur(acc, smoothing)
        lo, hi = float(acc.min()), float(acc.max())
        if hi - lo <= 0.0:
            warnings.warn(
                "constant cross-attention map; coarse mask is empty",
                DegenerateInputWarning, stacklevel=2,
            )
            out.append(BinaryMask(np.zeros((h, w), dtype=np.uint8)))
            continue
        norm = (acc - lo) / (hi - lo)
        out.append(BinaryMask((norm >= sigma_noun).astype(np.uint8)))
    return out


@dataclass
class ClusterState:
    """Converged K-means state; centers feed the next warm start."""

    centers: np.ndarray        # (k, features)
    assignments: np.ndarray    # (n,)
    n_iter: int
    inertia: float
    inertia_history: "list[float]"


def _plusplus_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ seeding: sample rows with probability proportional to
    their squared distance from the centers chosen so far."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = _row_sq_distances(x, centers[0])
    for c in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # All remaining rows coincide with a chosen center.
            centers[c:] = centers[0]
            break
        centers[c] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, _row_sq_distances(x, centers[c]))
    return centers


def _row_sq_distances(x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """||x_i - center||^2 for every row, one row block at a time: no
    temporary the size of x."""
    out = np.empty(x.shape[0])
    for blk in row_blocks(x.shape[0], x.shape[1]):
        out[blk] = ((x[blk] - center) ** 2).sum(axis=1)
    return out


def _sq_distances(x: np.ndarray, x_sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (n, k) from the rows of x to the centers, expanded
    as ||x||^2 - 2 x.c + ||c||^2 (x_sq holds ||x||^2) so that the only large
    operand is x itself, and clipped at 0 against rounding."""
    d2 = x @ centers.T
    d2 *= -2.0
    d2 += x_sq[:, None]
    d2 += np.einsum("ij,ij->i", centers, centers)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def kmeans_self_attention(features, k: int,
                          prev_centers: np.ndarray | None = None,
                          seed: int = 0) -> ClusterState:
    """Lloyd's algorithm on self-attention features: a synthesis run's row
    sketches, or any rows.

    Initialization is either the provided warm-start centers or seeded
    k-means++ seeding. Ties in assignment go to the lowest cluster index; an
    emptied cluster keeps its previous center. An iteration whose
    assignments repeat the previous one's would recompute the same centers,
    so the loop stops there, with that iteration's distances giving the
    final assignments and inertia; otherwise they come from the final
    centers.
    """
    x = checked_array(features, "features", ndim=2)
    n = x.shape[0]
    if k < 1:
        raise ConfigurationError("k: must be >= 1")
    if k > n:
        raise ConfigurationError(f"k ({k}) exceeds the number of samples ({n})")
    if prev_centers is not None:
        centers = np.asarray(prev_centers, dtype=np.float64).copy()
        if centers.shape != (k, x.shape[1]):
            raise ShapeError(
                f"prev_centers shape {centers.shape} != ({k}, {x.shape[1]})"
            )
    else:
        centers = _plusplus_init(x, k, np.random.default_rng(seed))

    x_sq = np.einsum("ij,ij->i", x, x)
    previous = None
    history: "list[float]" = []
    n_iter = 0
    for n_iter in range(1, KMEANS_MAX_ITER + 1):
        d2 = _sq_distances(x, x_sq, centers)
        assignments = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), assignments].sum()))
        if previous is not None and np.array_equal(assignments, previous):
            return ClusterState(centers=centers, assignments=assignments,
                                n_iter=n_iter, inertia=history[-1],
                                inertia_history=history)
        previous = assignments
        new_centers = centers.copy()
        for c in range(k):
            idx = np.flatnonzero(assignments == c)
            if idx.size:
                # The members' mean, summed in row order over the span they
                # occupy, with no copy of their rows.
                span = slice(idx[0], idx[-1] + 1)
                members = (assignments[span] == c)[:, None]
                new_centers[c] = x[span].sum(axis=0, where=members) / idx.size
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift <= KMEANS_TOL:
            break
    d2 = _sq_distances(x, x_sq, centers)
    assignments = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), assignments].sum())
    return ClusterState(centers=centers, assignments=assignments,
                        n_iter=n_iter, inertia=inertia,
                        inertia_history=history)


def assign_clusters(ca_masks: "list[BinaryMask]", clusters: ClusterState,
                    sigma_cluster: float) -> "list[BinaryMask]":
    """Refined masks: each cluster joins the instance whose coarse mask
    overlaps at least sigma_cluster of it (ties: larger overlap, then lower
    instance index). Unclaimed clusters belong to no instance."""
    if not ca_masks:
        raise ConfigurationError("need at least one coarse mask")
    if not 0.0 < sigma_cluster <= 1.0:
        raise ConfigurationError("sigma_cluster: must lie in (0, 1]")
    h, w = ca_masks[0].height, ca_masks[0].width
    n = h * w
    if clusters.assignments.shape != (n,):
        raise ShapeError(
            f"cluster assignments cover {clusters.assignments.shape[0]} pixels, "
            f"masks cover {n}"
        )
    k = clusters.centers.shape[0]
    refined = [np.zeros((h, w), dtype=np.uint8) for _ in ca_masks]
    flat_masks = [m.flat() > 0.5 for m in ca_masks]
    for c in range(k):
        members = clusters.assignments == c
        size = int(members.sum())
        if size == 0:
            continue
        best_i, best_overlap = -1, -1
        for i, fm in enumerate(flat_masks):
            overlap = int((members & fm).sum())
            if overlap > best_overlap:
                best_i, best_overlap = i, overlap
        if best_overlap / size >= sigma_cluster:
            refined[best_i] |= members.reshape(h, w).astype(np.uint8)
    return [BinaryMask(r) for r in refined]
