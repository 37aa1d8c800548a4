"""The synthesis hot-path kernels against straightforward reference versions.

Each reference below is the plain form of a kernel that the engine computes
with fewer temporaries: a softmax out of place, the noise readout summed in
the forward pass, a backward pass that multiplies through a zero readout
gradient, energies squared after masking, one gradient array per instance, a
dense boolean ``allowed`` matrix for self-attention masking, a per-cell box
blur and an (n, k, d) K-means distance array. Where the arithmetic is the
same the results must be bitwise equal; the box blur and the K-means
distances sum in another order and are held to 1e-12.
"""
import warnings

import numpy as np
import pytest

from attnctl import gradients, refine, synthesis
from attnctl.core import (
    CROSS,
    DECODER,
    SELF,
    AttentionMap,
    BinaryMask,
    LayerAttention,
    gated_layers,
)
from attnctl.denoiser import (
    ForwardCache,
    LayerCache,
    _blockmean,
    _blockmean_adjoint,
    _replicate,
    _replicate_adjoint,
    default_params,
    forward_cache,
    workspace,
)
from attnctl.errors import DegenerateInputWarning
from attnctl.gradients import BackpropResult, backprop
from attnctl.scenario import generate_scenario, synthesis_tokens
from attnctl.synthesis import (
    ScheduleParams,
    SynthesisConfig,
    _box_loss_grads,
    _box_loss_terms,
    _mask_maps,
    _sa_energies,
    instance_masks_from_boxes,
    run_synthesis,
)


def _same_bits(a, b) -> bool:
    """Equal shapes and bit patterns (distinguishes 0.0 from -0.0)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Reference kernels
# ---------------------------------------------------------------------------

def ref_forward_cache(z, emb, layers):
    H, W, d = z.shape
    cache = ForwardCache(z=z, emb=emb)
    acc = np.zeros_like(z)
    scale = 1.0 / np.sqrt(d)
    for work in layers:
        x = _blockmean(z, work.height, work.width)
        q = x @ work.wq
        src = emb if work.attn_type == CROSS else x
        k = src @ work.wk
        v = src @ work.wv
        logits = (q @ k.T) * scale
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        attn = e / e.sum(axis=1, keepdims=True)
        out = attn @ v
        cache.layers.append(LayerCache(work, x, q, k, v, attn))
        acc += _replicate(out, work.height, work.width, H, W)
    cache._eps_hat = acc / len(layers)
    return cache


def ref_softmax_rows_backward(attn, d_attn):
    inner = (d_attn * attn).sum(axis=1, keepdims=True)
    return attn * (d_attn - inner)


def ref_backprop(cache, d_attn=None, d_eps=None):
    H, W, d = cache.z.shape
    n_layers = len(cache.layers)
    scale = 1.0 / np.sqrt(d)
    d_emb = np.zeros_like(cache.emb)
    d_z = np.zeros_like(cache.z)
    d_wv = []
    for idx, lc in enumerate(cache.layers):
        work = lc.work
        upstream = None if d_attn is None else d_attn[idx]
        if upstream is None and d_eps is None:
            d_wv.append(np.zeros((d, d)))
            continue
        if d_eps is not None:
            d_out = _replicate_adjoint(d_eps, work.height, work.width) / n_layers
        else:
            d_out = np.zeros((lc.attn.shape[0], lc.v.shape[1]))
        da = d_out @ lc.v.T
        if upstream is not None:
            da = da + upstream
        dz_logits = ref_softmax_rows_backward(lc.attn, da)
        dq = scale * (dz_logits @ lc.k)
        dk = scale * (dz_logits.T @ lc.q)
        dv = lc.attn.T @ d_out
        dx = dq @ work.wq.T
        if work.attn_type == CROSS:
            d_emb += dk @ work.wk.T + dv @ work.wv.T
            d_wv.append(cache.emb.T @ dv)
        else:
            dx = dx + dk @ work.wk.T + dv @ work.wv.T
            d_wv.append(lc.x.T @ dv)
        d_z += _blockmean_adjoint(dx, work.height, work.width, H, W)
    return BackpropResult(d_emb=d_emb, d_z=d_z, d_wv=d_wv)


def ref_sa_energies(attn, m_flat):
    rows = m_flat > 0.5
    sub = attn[rows, :]
    fg = float(((sub * m_flat[None, :]) ** 2).sum())
    bg = float(((sub * (1.0 - m_flat)[None, :]) ** 2).sum())
    return fg, bg


def ref_box_loss_grads(layers, maps, masks, groups, alpha_t, config, per_instance):
    ca_idx = gated_layers(layers, CROSS)
    sa_idx = gated_layers(layers, SELF)
    d_attn = [None] * len(layers)

    def _acc(li, grad):
        if d_attn[li] is None:
            d_attn[li] = grad
        else:
            d_attn[li] += grad

    for i, group in enumerate(groups):
        terms = per_instance[i]
        outer = 2.0 * terms.loss
        fg_c, bg_c = synthesis.mean_energies(terms.fg_ca, terms.bg_ca)
        dr_fg, dr_bg = synthesis._score_derivs(fg_c, bg_c)
        db = dr_bg + (alpha_t / (1.0 + bg_c) if config.use_out_of_box else 0.0)
        cf = outer * config.lambda_ca * dr_fg / len(ca_idx)
        cb = outer * config.lambda_ca * db / len(ca_idx)
        for li in ca_idx:
            m = masks[i][(layers[li].height, layers[li].width)].flat()
            attn = maps[li]
            grad = np.zeros_like(attn)
            for token in group:
                col = attn[:, token]
                grad[:, token] += cf * 2.0 * m * col + cb * 2.0 * (1.0 - m) * col
            _acc(li, grad)
        if sa_idx:
            fg_s, bg_s = synthesis.mean_energies(terms.fg_sa, terms.bg_sa)
            dr_fg, dr_bg = synthesis._score_derivs(fg_s, bg_s)
            db = dr_bg + (alpha_t / (1.0 + bg_s) if config.use_out_of_box else 0.0)
            cf = outer * config.lambda_sa * dr_fg / len(sa_idx)
            cb = outer * config.lambda_sa * db / len(sa_idx)
            for li in sa_idx:
                m = masks[i][(layers[li].height, layers[li].width)].flat()
                attn = maps[li]
                rows = m > 0.5
                grad = np.zeros_like(attn)
                grad[rows, :] = (cf * 2.0 * m[None, :] + cb * 2.0 * (1.0 - m)[None, :]) \
                    * attn[rows, :]
                _acc(li, grad)
    return d_attn


def ref_mask_maps(layers, maps, masks, groups):
    out = []
    for li, layer in enumerate(layers):
        h, w = layer.height, layer.width
        attn = maps[li].copy()
        if layer.attn_type == CROSS:
            for i, group in enumerate(groups):
                outside = masks[i][(h, w)].flat() < 0.5
                for token in group:
                    attn[outside, token] = 0.0
        else:
            n = attn.shape[1]
            allowed = np.ones((attn.shape[0], n), dtype=bool)
            covered = np.zeros(attn.shape[0], dtype=bool)
            for i in range(len(groups)):
                inside = masks[i][(h, w)].flat() > 0.5
                newly = inside & ~covered
                allowed[newly, :] = False
                allowed[inside, :] |= inside[None, :]
                covered |= inside
            attn[covered] = np.where(allowed[covered], attn[covered], 0.0)
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
                    ok = allowed[r]
                    attn[r, ok] = 1.0 / ok.sum()
            sums = attn.sum(axis=1, keepdims=True)
        out.append(attn / sums)
    return out


def ref_box_blur(grid, radius):
    if radius == 0:
        return grid.copy()
    h, w = grid.shape
    out = np.empty_like(grid, dtype=np.float64)
    for r in range(h):
        r0, r1 = max(0, r - radius), min(h, r + radius + 1)
        for c in range(w):
            c0, c1 = max(0, c - radius), min(w, c + radius + 1)
            out[r, c] = grid[r0:r1, c0:c1].mean()
    return out


def ref_sq_distances(x, centers):
    return ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _setup(grid=8, dim=4, seed=0):
    """Layers, a random latent and embeddings, and a two-box synthesis
    problem whose boxes overlap, so some pixels lie in both."""
    params = default_params(dim, grid, grid, seed=seed)
    layers = workspace(params)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((grid, grid, dim))
    emb = rng.standard_normal((3, dim))
    resolutions = sorted({(l.height, l.width) for l in layers})
    boxes = [synthesis.BoxSpec(0.0, 0.0, 0.7, 0.7), synthesis.BoxSpec(0.3, 0.3, 1.0, 1.0)]
    masks = instance_masks_from_boxes(boxes, resolutions)
    return layers, z, emb, masks, [[1], [2]]


def _loss_inputs(seed, out_of_box):
    layers, z, emb, masks, groups = _setup(seed=seed)
    cache = ref_forward_cache(z, emb, layers)
    maps = [lc.attn for lc in cache.layers]
    config = SynthesisConfig(use_out_of_box=out_of_box)
    per, _ = _box_loss_terms(layers, maps, masks, groups, 0.3, config)
    return cache, layers, maps, masks, groups, config, per


# ---------------------------------------------------------------------------
# Bitwise kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_cache_matches_reference_bitwise(seed):
    layers, z, emb, *_ = _setup(seed=seed)
    new = forward_cache(z, emb, layers)
    ref = ref_forward_cache(z, emb, layers)
    for a, b in zip(new.layers, ref.layers):
        assert _same_bits(a.attn, b.attn)
    assert _same_bits(new.eps_hat, ref.eps_hat)
    assert new.eps_hat is new.eps_hat  # computed once, then kept


@pytest.mark.parametrize("seed,out_of_box", [(0, True), (1, False), (2, True)])
def test_backprop_without_readout_gradient_matches_reference_bitwise(seed, out_of_box):
    cache, layers, maps, masks, groups, config, per = _loss_inputs(seed, out_of_box)
    d_attn = ref_box_loss_grads(layers, maps, masks, groups, 0.3, config, per)
    new = backprop(cache, d_attn=d_attn, d_eps=None)
    ref = ref_backprop(cache, d_attn=d_attn, d_eps=None)
    assert _same_bits(new.d_z, ref.d_z)
    assert _same_bits(new.d_emb, ref.d_emb)
    for a, b in zip(new.d_wv, ref.d_wv):
        assert _same_bits(a, b)


def test_backprop_with_readout_gradient_matches_reference_bitwise():
    cache, layers, maps, masks, groups, config, per = _loss_inputs(3, True)
    d_attn = ref_box_loss_grads(layers, maps, masks, groups, 0.3, config, per)
    d_eps = np.random.default_rng(3).standard_normal(cache.z.shape)
    for upstream in (d_attn, None):
        new = backprop(cache, d_attn=upstream, d_eps=d_eps)
        ref = ref_backprop(cache, d_attn=upstream, d_eps=d_eps)
        assert _same_bits(new.d_z, ref.d_z)
        assert _same_bits(new.d_emb, ref.d_emb)
        for a, b in zip(new.d_wv, ref.d_wv):
            assert _same_bits(a, b)


def test_softmax_rows_backward_leaves_inputs_alone():
    rng = np.random.default_rng(4)
    attn = rng.random((5, 6))
    d_attn = rng.standard_normal((5, 6))
    before = (attn.copy(), d_attn.copy())
    got = gradients.softmax_rows_backward(attn, d_attn)
    assert _same_bits(got, ref_softmax_rows_backward(attn, d_attn))
    assert _same_bits(attn, before[0]) and _same_bits(d_attn, before[1])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sa_energies_match_reference_bitwise(seed):
    rng = np.random.default_rng(seed)
    attn = rng.random((36, 36))
    m = (rng.random(36) < 0.4).astype(np.float64)
    assert _sa_energies(attn, m) == ref_sa_energies(attn, m)
    fg, bg = _sa_energies(attn, np.zeros(36))
    assert (fg, bg) == ref_sa_energies(attn, np.zeros(36)) == (0.0, 0.0)


@pytest.mark.parametrize("seed,out_of_box", [(0, True), (1, False), (2, True)])
def test_box_loss_grads_match_reference_bitwise(seed, out_of_box):
    cache, layers, maps, masks, groups, config, per = _loss_inputs(seed, out_of_box)
    new = _box_loss_grads(layers, maps, masks, groups, 0.3, config, per)
    ref = ref_box_loss_grads(layers, maps, masks, groups, 0.3, config, per)
    assert [g is None for g in new] == [g is None for g in ref]
    for a, b in zip(new, ref):
        if a is not None:
            assert _same_bits(a, b)


def test_mask_maps_matches_reference_bitwise_with_overlapping_boxes():
    layers, z, emb, masks, groups = _setup(seed=5)
    maps = [lc.attn for lc in forward_cache(z, emb, layers).layers]
    sa = gated_layers(layers, SELF)[0]
    h, w = layers[sa].height, layers[sa].width
    both = (masks[0][(h, w)].flat() > 0.5) & (masks[1][(h, w)].flat() > 0.5)
    assert both.any()  # some pixel lies in both boxes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new = _mask_maps(layers, maps, masks, groups)
        ref = ref_mask_maps(layers, maps, masks, groups)
    for a, b in zip(new, ref):
        assert _same_bits(a, b)


def test_mask_maps_dead_row_fallback_matches_reference_bitwise():
    # 2x2 self attention; box A covers pixels 0 and 1, box B pixels 1 and 3.
    # Pixel 0 may reach only A, but attends only to pixel 2: its row dies and
    # falls back to uniform over {0, 1}. Pixel 1 lies in both boxes.
    attn = np.array([[0.0, 0.0, 1.0, 0.0],
                     [0.1, 0.2, 0.3, 0.4],
                     [0.25, 0.25, 0.25, 0.25],
                     [0.4, 0.3, 0.2, 0.1]])
    layers = [LayerAttention(DECODER, SELF, 2, 2, AttentionMap(attn))]
    masks = [{(2, 2): BinaryMask([[1, 1], [0, 0]])},
             {(2, 2): BinaryMask([[0, 1], [0, 1]])}]
    with pytest.warns(DegenerateInputWarning):
        new = _mask_maps(layers, [attn], masks, [[1], [2]])
    with pytest.warns(DegenerateInputWarning):
        ref = ref_mask_maps(layers, [attn], masks, [[1], [2]])
    assert _same_bits(new[0], ref[0])
    assert _same_bits(new[0][0], [0.5, 0.5, 0.0, 0.0])
    assert new[0][1, 2] == 0.0 and new[0][1, 1] > 0.0


# ---------------------------------------------------------------------------
# Kernels that sum in another order
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(8, 8), (5, 9), (1, 7), (12, 3)])
@pytest.mark.parametrize("radius", [0, 1, 2, 3, 12])
def test_box_blur_matches_reference(shape, radius):
    grid = np.random.default_rng(radius).random(shape)
    got = refine.box_blur(grid, radius)
    assert got.shape == shape
    assert np.max(np.abs(got - ref_box_blur(grid, radius))) <= 1e-12
    if radius >= max(shape):
        assert np.allclose(got, grid.mean(), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sq_distances_match_reference(seed):
    rng = np.random.default_rng(seed)
    x = rng.random((40, 64)) / 64.0
    centers = x[rng.choice(40, 3, replace=False)]
    x_sq = np.einsum("ij,ij->i", x, x)
    got = refine._sq_distances(x, x_sq, centers)
    ref = ref_sq_distances(x, centers)
    assert np.max(np.abs(got - ref)) <= 1e-12
    assert np.all(got >= 0.0)
    assert np.array_equal(np.argmin(got, axis=1), np.argmin(ref, axis=1))


def test_sq_distances_tie_goes_to_lowest_index():
    rng = np.random.default_rng(6)
    x = rng.random((30, 16))
    centers = np.stack([x[3], x[7], x[3], x[7]])  # duplicated centers
    x_sq = np.einsum("ij,ij->i", x, x)
    got = refine._sq_distances(x, x_sq, centers)
    assert np.max(np.abs(got - ref_sq_distances(x, centers))) <= 1e-12
    assert _same_bits(got[:, 0], got[:, 2]) and _same_bits(got[:, 1], got[:, 3])
    assert set(np.argmin(got, axis=1)) <= {0, 1}


@pytest.mark.parametrize("seed,duplicate", [(0, False), (1, False), (2, True)])
def test_kmeans_matches_reference_distances(monkeypatch, seed, duplicate):
    rng = np.random.default_rng(seed)
    x = rng.random((60, 24))
    prev = np.stack([x[0], x[1], x[0]]) if duplicate else None
    new = refine.kmeans_self_attention(x, 3, prev_centers=prev, seed=seed)
    monkeypatch.setattr(refine, "_sq_distances",
                        lambda x, x_sq, centers: ref_sq_distances(x, centers))
    ref = refine.kmeans_self_attention(x, 3, prev_centers=prev, seed=seed)
    assert np.array_equal(new.assignments, ref.assignments)
    assert _same_bits(new.centers, ref.centers)
    assert new.n_iter == ref.n_iter
    assert new.inertia == pytest.approx(ref.inertia, rel=1e-12)
    assert np.allclose(new.inertia_history, ref.inertia_history, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------

def test_run_synthesis_with_reference_kernels_is_bitwise_equal(monkeypatch):
    scen = generate_scenario((16, 16), 2, rho=0.8, seed=0, dim=4)
    tokens = synthesis_tokens(scen, gain=10.0)
    params = default_params(4, 16, 16, seed=7)
    boxes = scen.boxes()
    config = SynthesisConfig(beta=128.0, seed=3)

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateInputWarning)
            return run_synthesis(tokens, params, boxes, config,
                                 sched=ScheduleParams(),
                                 refinement=refine.RefinementConfig())

    new = run()
    with monkeypatch.context() as mp:
        mp.setattr(synthesis, "forward_cache", ref_forward_cache)
        mp.setattr(gradients, "backprop", ref_backprop)
        mp.setattr(synthesis, "_sa_energies", ref_sa_energies)
        mp.setattr(synthesis, "_box_loss_grads", ref_box_loss_grads)
        mp.setattr(synthesis, "_mask_maps", ref_mask_maps)
        mp.setattr(refine, "box_blur", ref_box_blur)
        mp.setattr(refine, "_sq_distances",
                   lambda x, x_sq, centers: ref_sq_distances(x, centers))
        ref = run()
    assert new.refined and ref.refined
    assert _same_bits(new.z_final, ref.z_final)
    assert new.steps == ref.steps
    for a, b in zip(new.masks, ref.masks):
        assert {k: m.bits.tobytes() for k, m in a.items()} == \
               {k: m.bits.tobytes() for k, m in b.items()}
