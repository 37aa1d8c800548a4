"""Mask refinement: CA-derived coarse masks, K-means, cluster assignment."""
import numpy as np
import pytest

from attnctl import refine
from attnctl.core import AttentionMap, AttentionRecord, BinaryMask, LayerAttention
from attnctl.errors import ConfigurationError, DegenerateInputWarning, ShapeError
from attnctl.refine import (
    ClusterState,
    RefinementConfig,
    assign_clusters,
    box_blur,
    compute_ca_masks,
    kmeans_self_attention,
)


def _ca_record(col0, height, width, n_tokens=2, kind="decoder"):
    col0 = np.asarray(col0, dtype=np.float64)
    weights = np.zeros((col0.size, n_tokens))
    weights[:, 0] = col0
    weights[:, 1] = 1.0 - col0
    return AttentionRecord(
        (LayerAttention(kind, "CA", height, width, AttentionMap(weights)),))


# ---------------------------------------------------------------------------
# Box blur and coarse masks
# ---------------------------------------------------------------------------

def test_box_blur_radius_zero_copies():
    grid = np.arange(6.0).reshape(2, 3)
    out = box_blur(grid, 0)
    assert np.array_equal(out, grid)
    out[0, 0] = 99.0
    assert grid[0, 0] == 0.0


def test_box_blur_center_and_edges():
    grid = np.zeros((3, 3))
    grid[1, 1] = 9.0
    out = box_blur(grid, 1)
    assert out[1, 1] == pytest.approx(1.0)     # 9 / 9 cells
    assert out[0, 0] == pytest.approx(9.0 / 4.0)  # truncated 2x2 window
    with pytest.raises(ConfigurationError):
        box_blur(grid, -1)


def test_box_blur_uniform_invariant():
    grid = np.full((4, 5), 3.7)
    assert np.allclose(box_blur(grid, 2), grid)


def test_compute_ca_masks_one_hot_pixel():
    col = np.zeros(4)
    col[2] = 1.0
    record = _ca_record(col, 2, 2)
    masks = compute_ca_masks(record.layers, record.maps(), [[0]], smoothing=0,
                             sigma_noun=0.5)
    assert np.array_equal(masks[0].bits, [[0, 0], [1, 0]])


def test_compute_ca_masks_hand_normalization():
    # Column (0.4, 0.2, 0.2, 0.2) min-max normalizes to (1, 0, 0, 0).
    record = _ca_record([0.4, 0.2, 0.2, 0.2], 2, 2)
    masks = compute_ca_masks(record.layers, record.maps(), [[0]], smoothing=0,
                             sigma_noun=0.5)
    assert np.array_equal(masks[0].bits, [[1, 0], [0, 0]])


def test_compute_ca_masks_constant_map_warns_empty():
    record = _ca_record([0.25, 0.25, 0.25, 0.25], 2, 2)
    with pytest.warns(DegenerateInputWarning):
        masks = compute_ca_masks(record.layers, record.maps(), [[0]], smoothing=0,
                                 sigma_noun=0.5)
    assert masks[0].is_empty()


def test_compute_ca_masks_validation():
    record = _ca_record([0.4, 0.2, 0.2, 0.2], 2, 2)
    with pytest.raises(ConfigurationError):
        compute_ca_masks(record.layers, record.maps(), [[]], 0, 0.5)
    with pytest.raises(ConfigurationError):
        compute_ca_masks(record.layers, record.maps(), [[7]], 0, 0.5)
    encoder_only = _ca_record([0.4, 0.2, 0.2, 0.2], 2, 2, kind="encoder")
    with pytest.raises(ConfigurationError):
        compute_ca_masks(encoder_only.layers, encoder_only.maps(), [[0]], 0, 0.5)


def test_refinement_config_validation():
    RefinementConfig().validate()
    for bad in [dict(smoothing=-1), dict(sigma_noun=1.5),
                dict(sigma_cluster=0.0)]:
        with pytest.raises(ConfigurationError):
            RefinementConfig(**bad).validate()


# ---------------------------------------------------------------------------
# K-means
# ---------------------------------------------------------------------------

def test_kmeans_single_cluster_is_the_mean():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 3))
    state = kmeans_self_attention(x, 1)
    assert np.allclose(state.centers[0], x.mean(axis=0), atol=1e-12)
    assert np.all(state.assignments == 0)


def test_kmeans_separated_clouds_recovered_exactly():
    rng = np.random.default_rng(1)
    a = rng.normal(0.0, 0.05, size=(15, 2))
    b = rng.normal(8.0, 0.05, size=(10, 2))
    x = np.vstack([a, b])
    truth = np.array([0] * 15 + [1] * 10)
    for seed in range(5):
        state = kmeans_self_attention(x, 2, seed=seed)
        # Cluster labels may be permuted; compare as a partition.
        same = (state.assignments == state.assignments[0])
        assert np.array_equal(same, truth == truth[0])


def test_kmeans_warm_start_fixed_point():
    rng = np.random.default_rng(2)
    x = np.vstack([rng.normal(0, 0.1, (12, 2)), rng.normal(5, 0.1, (12, 2))])
    state = kmeans_self_attention(x, 2, seed=0)
    warm = kmeans_self_attention(x, 2, prev_centers=state.centers)
    assert warm.n_iter == 1
    assert np.array_equal(warm.assignments, state.assignments)
    assert np.allclose(warm.centers, state.centers, atol=1e-12)


def test_kmeans_stops_at_a_repeated_assignment_with_one_distance_pass_per_iteration(
        monkeypatch):
    # An iteration whose assignments repeat the previous one's would compute
    # the same centers again: the loop ends there, and its distances give
    # the final assignments and inertia. A warm start at a fixed point has
    # no previous assignments: it stops as its centers stay put and takes
    # one more distance pass, at the final centers.
    rng = np.random.default_rng(4)
    x = np.vstack([rng.normal(c, 0.5, (40, 3)) for c in (0.0, 2.0, 4.0)])
    calls = []
    distances = refine._sq_distances

    def counted(*args):
        calls.append(1)
        return distances(*args)

    monkeypatch.setattr(refine, "_sq_distances", counted)
    cold = kmeans_self_attention(x, 3, seed=0)
    assert cold.n_iter >= 3 and len(calls) == cold.n_iter
    assert cold.inertia == cold.inertia_history[-1]
    calls.clear()
    warm = kmeans_self_attention(x, 3, prev_centers=cold.centers)
    assert warm.n_iter == 1 and len(calls) == 2
    assert np.array_equal(warm.assignments, cold.assignments)
    assert warm.centers.tobytes() == cold.centers.tobytes()


def test_kmeans_objective_nonincreasing():
    rng = np.random.default_rng(3)
    for seed in range(5):
        x = rng.standard_normal((30, 4))
        state = kmeans_self_attention(x, 3, seed=seed)
        hist = state.inertia_history
        assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))
        assert state.inertia == pytest.approx(hist[-1], rel=1e-6)


def test_kmeans_tie_goes_to_lowest_cluster():
    x = np.array([[0.0], [2.0]])
    state = kmeans_self_attention(x, 2, prev_centers=np.array([[1.0], [1.0]]))
    assert np.array_equal(state.assignments, [0, 0])


def test_kmeans_empty_cluster_keeps_center():
    x = np.array([[0.0], [1.0]])
    state = kmeans_self_attention(x, 2, prev_centers=np.array([[0.5], [100.0]]))
    assert state.centers[1, 0] == pytest.approx(100.0)


def test_kmeans_validation():
    x = np.zeros((3, 2))
    with pytest.raises(ConfigurationError):
        kmeans_self_attention(x, 4)
    with pytest.raises(ConfigurationError):
        kmeans_self_attention(x, 0)
    with pytest.raises(ShapeError):
        kmeans_self_attention(np.zeros(3), 1)
    with pytest.raises(ValueError):
        kmeans_self_attention(np.full((3, 2), np.nan), 1)
    with pytest.raises(ShapeError):
        kmeans_self_attention(x, 2, prev_centers=np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# Cluster-to-instance assignment
# ---------------------------------------------------------------------------

def _cluster_state(assignments, k):
    assignments = np.asarray(assignments, dtype=np.int64)
    return ClusterState(centers=np.zeros((k, 2)), assignments=assignments,
                        n_iter=1, inertia=0.0, inertia_history=[0.0])


def test_assign_clusters_identity_case():
    coarse = [BinaryMask([[1, 0], [0, 0]]), BinaryMask([[0, 0], [0, 1]])]
    # Clusters: pixel 0 -> cluster 0, pixel 3 -> cluster 1, rest cluster 2.
    state = _cluster_state([0, 2, 2, 1], 3)
    refined = assign_clusters(coarse, state, sigma_cluster=0.5)
    assert np.array_equal(refined[0].bits, coarse[0].bits)
    assert np.array_equal(refined[1].bits, coarse[1].bits)


def test_assign_clusters_majority_overlap_joins():
    # Cluster 0 covers pixels {0, 1}; the coarse mask covers only pixel 0,
    # so the overlap ratio is 0.5 and the whole cluster joins at threshold.
    coarse = [BinaryMask([[1, 0], [0, 0]])]
    state = _cluster_state([0, 0, 1, 1], 2)
    refined = assign_clusters(coarse, state, sigma_cluster=0.5)
    assert np.array_equal(refined[0].bits, [[1, 1], [0, 0]])
    # At a stricter threshold the cluster stays background.
    strict = assign_clusters(coarse, state, sigma_cluster=0.75)
    assert strict[0].is_empty()


def test_assign_clusters_tie_breaks_to_lower_index():
    left = BinaryMask([[1, 0], [1, 0]])
    right = BinaryMask([[0, 1], [0, 1]])
    # One cluster covering everything overlaps both masks equally.
    state = _cluster_state([0, 0, 0, 0], 1)
    refined = assign_clusters([left, right], state, sigma_cluster=0.5)
    assert refined[0].count == 4
    assert refined[1].is_empty()


def test_assign_clusters_refined_masks_disjoint():
    rng = np.random.default_rng(4)
    for _ in range(20):
        coarse = [BinaryMask(rng.integers(0, 2, (3, 3), dtype=np.uint8))
                  for _ in range(2)]
        if coarse[0].is_empty() and coarse[1].is_empty():
            continue
        assignments = rng.integers(0, 3, 9)
        refined = assign_clusters(coarse, _cluster_state(assignments, 3), 0.3)
        inter = refined[0].bits & refined[1].bits
        assert not inter.any()


def test_assign_clusters_validation():
    coarse = [BinaryMask([[1, 0], [0, 0]])]
    state = _cluster_state([0, 0, 0, 0], 1)
    with pytest.raises(ConfigurationError):
        assign_clusters([], state, 0.5)
    with pytest.raises(ConfigurationError):
        assign_clusters(coarse, state, 0.0)
    bad = _cluster_state([0, 0], 1)
    with pytest.raises(ShapeError):
        assign_clusters(coarse, bad, 0.5)
