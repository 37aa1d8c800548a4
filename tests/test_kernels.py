"""The learning and synthesis hot-path kernels against straightforward
reference versions.

Each reference below is the plain form of a kernel that the engine computes
with fewer temporaries: a softmax out of place, layer outputs and pooled
gradients replicated onto the grid as full-size broadcast copies, the noise
readout summed in the forward pass, a backward pass that multiplies through a
zero readout gradient, a learning loop that evaluates and backpropagates
every term on every iteration whatever its weight, energies squared after
masking, one instance at a time, one gradient array per instance, a dense
boolean ``allowed`` matrix for self-attention masking, the masked readout as
the readout of masked maps, a per-cell box blur and an (n, k, d) K-means
distance array. Where the arithmetic is the same the results must be bitwise
equal; the box blur, the K-means distances, the self-attention energies and
the masked readout sum in another order and are held to 1e-12 (the energies
to 1e-13, and bitwise on maps whose sums are exact), and so is a synthesis
run on the reference kernels.
"""
import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnctl import core, gradients, learning, refine, synthesis
from attnctl.core import (
    CROSS,
    DECODER,
    SELF,
    AttentionMap,
    AttentionRecord,
    BinaryMask,
    LayerAttention,
    gated_layers,
)
from attnctl.denoiser import (
    ForwardCache,
    LayerCache,
    _token_matrix,
    ddim_add_noise,
    default_params,
    forward_cache,
    readout_eps,
    record_from_maps,
    toy_schedule,
    workspace,
)
from attnctl.errors import DegenerateInputWarning
from attnctl.gradients import backprop
from attnctl.sapass import (
    INBOX,
    SKETCH_COLUMNS,
    STREAM,
    RowLayout,
    SAPass,
    SARowGrad,
    sketch_basis,
)
from attnctl.scenario import generate_scenario, synthesis_tokens
from attnctl.synthesis import (
    ScheduleParams,
    SynthesisConfig,
    _box_loss_grads,
    _box_loss_terms,
    _flat_masks,
    _mask_maps,
    _masked_readout,
    _sa_box_energies,
    apply_attention_masking,
    fg_bg_energies,
    instance_masks_from_boxes,
    masks_at_all_resolutions,
    run_synthesis,
)
from test_synthesis import _stream_passes, _synthesis_64x64


def _same_bits(a, b) -> bool:
    """Equal shapes and bit patterns (distinguishes 0.0 from -0.0)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Reference kernels
# ---------------------------------------------------------------------------

def ref_blockmean(z, h, w):
    """Average-pool an (H, W, d) grid to (h*w, d)."""
    H, W, d = z.shape
    return z.reshape(h, H // h, w, W // w, d).mean(axis=(1, 3)).reshape(h * w, d)


def ref_replicate_adjoint(g, h, w):
    """Adjoint of replicating an (h*w, d) layer output onto the grid: sum
    the full-grid gradient over each block."""
    H, W, d = g.shape
    return g.reshape(h, H // h, w, W // w, d).sum(axis=(1, 3)).reshape(h * w, d)


def ref_replicate(o, h, w, H, W):
    """Replicate an (h*w, d) layer output back onto the (H, W, d) grid."""
    d = o.shape[1]
    bh, bw = H // h, W // w
    o = o.reshape(h, 1, w, 1, d)
    return np.broadcast_to(o, (h, bh, w, bw, d)).reshape(H, W, d)


def ref_blockmean_adjoint(g, h, w, H, W):
    """Adjoint of the block mean: spread each pooled gradient over its block."""
    d = g.shape[1]
    bh, bw = H // h, W // w
    g = g.reshape(h, 1, w, 1, d) / (bh * bw)
    return np.broadcast_to(g, (h, bh, w, bw, d)).reshape(H, W, d)


def ref_forward_cache(z, emb, layers):
    """The forward cache and the noise readout summed along with it."""
    H, W, d = z.shape
    cache = ForwardCache(z=z, emb=emb)
    acc = np.zeros_like(z)
    scale = 1.0 / np.sqrt(d)
    for work in layers:
        x = ref_blockmean(z, work.height, work.width)
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
        acc += ref_replicate(out, work.height, work.width, H, W)
    return cache, acc / len(layers)


def ref_softmax_rows_backward(attn, d_attn):
    inner = (d_attn * attn).sum(axis=1, keepdims=True)
    return attn * (d_attn - inner)


def ref_backprop(cache, d_attn=None, d_eps=None, wrt=None):
    """Every gradient, whatever ``wrt`` names."""
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
            d_out = ref_replicate_adjoint(d_eps, work.height, work.width) / n_layers
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
        d_z += ref_blockmean_adjoint(dx, work.height, work.width, H, W)
    return SimpleNamespace(d_emb=d_emb, d_z=d_z, d_wv=d_wv)


def ref_attn_loss_and_grad(maps, gated_masks, instances, draw, branch, alpha):
    """The staged attention loss and dL/dA on each gated layer, one drawn
    instance at a time, each adding its gradient into its token's column of
    a zeroed map; gated_masks maps layer index -> per-instance flat masks."""
    loss = 0.0
    d_attn = [None] * len(maps)
    for li, flat_masks in gated_masks.items():
        attn = maps[li]
        grad = np.zeros(attn.shape)
        for i in draw.instance_indices:
            token, m = instances.placeholder_ids[i], flat_masks[i]
            col = attn[:, token]
            if branch == learning.BRANCH_REWARD:
                diff = col - alpha * m
                loss += float((diff ** 2).sum())
                grad[:, token] += 2.0 * diff
            else:
                off = (1.0 - m) * col
                loss += float((off ** 2).sum())
                grad[:, token] += 2.0 * (1.0 - m) * off
        d_attn[li] = grad
    return loss, d_attn


def ref_run_semantic_learning(scen, config, schedule, params):
    """The learning loop with every term always evaluated and
    backpropagated: every iteration runs every layer and the readout, a zero
    lambda_rec still sends lambda_rec * d_eps through all layers, and an
    iteration with no attention term still runs the backward pass and
    subtracts its (zero) embedding gradient. Returns the final embeddings,
    the embeddings at the end of the coarse stage, each layer's Wv and the
    trace rows."""
    instances = scen.instance_set()
    z0 = scen.z0
    layers = workspace(params)
    rng = np.random.default_rng(config.seed)
    emb = np.zeros((max(instances.placeholder_ids) + 1, z0.shape[2]))
    for pid in instances.placeholder_ids:
        emb[pid] = rng.normal(0.0, 0.02, size=z0.shape[2])
    gated_masks = learning._gated_masks(layers, instances.masks)
    trace, emb_at_coarse_end = [], None
    for e in range(config.total_iters):
        if e == config.coarse_iters:
            emb_at_coarse_end = emb.copy()
        stage2 = e >= config.stage1_iters
        draw = learning.joint_sample(instances, rng)
        t = int(rng.integers(0, schedule.total_steps))
        eps = rng.standard_normal(z0.shape)
        cache, eps_hat = ref_forward_cache(ddim_add_noise(z0, eps, t, schedule),
                                           emb, layers)
        m3 = draw.m_rec.bits.astype(np.float64)[:, :, None]
        rec = float(((m3 * (eps - eps_hat)) ** 2).sum())
        d_eps = 2.0 * m3 * (eps_hat - eps)
        branch = learning.BRANCH_STAGE2 if stage2 else learning._attn_branch(e, config)
        attn, upstream = 0.0, None
        if not stage2 and config.t_min_attn <= t <= config.t_max_attn:
            attn, d_attn = ref_attn_loss_and_grad(
                [lc.attn for lc in cache.layers], gated_masks, instances, draw,
                branch, config.alpha)
            upstream = [None if g is None else config.lambda_attn * g for g in d_attn]
        res = ref_backprop(cache, d_attn=upstream, d_eps=config.lambda_rec * d_eps)
        if stage2:
            for li, lw in enumerate(layers):
                lw.wv -= config.stage2_rate * res.d_wv[li]
        else:
            for pid in instances.placeholder_ids:
                emb[pid] -= config.learn_rate * res.d_emb[pid]
        trace.append(learning.TraceRow(
            e, branch, rec, attn, config.lambda_rec * rec + config.lambda_attn * attn))
    if emb_at_coarse_end is None:  # coarse_iters == total_iters
        emb_at_coarse_end = emb.copy()
    return emb, emb_at_coarse_end, [lw.wv for lw in layers], trace


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
        masked = attn / sums
        if layer.attn_type == SELF:
            masked[~covered] = maps[li][~covered]  # rows in no box are left as given
        out.append(masked)
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


def ref_kmeans(x, k, prev_centers=None, seed=0):
    """Lloyd's algorithm with whole-array k-means++ distances and each center
    the mean of a copy of its members' rows."""
    n = x.shape[0]
    if prev_centers is not None:
        centers = np.array(prev_centers, dtype=np.float64)
    else:
        rng = np.random.default_rng(seed)
        centers = np.empty((k, x.shape[1]))
        centers[0] = x[rng.integers(n)]
        d2 = ((x - centers[0]) ** 2).sum(axis=1)
        for c in range(1, k):
            total = float(d2.sum())
            if total <= 0.0:
                centers[c:] = centers[0]
                break
            centers[c] = x[rng.choice(n, p=d2 / total)]
            d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))
    x_sq = np.einsum("ij,ij->i", x, x)
    history = []
    for n_iter in range(1, refine.KMEANS_MAX_ITER + 1):
        d2 = refine._sq_distances(x, x_sq, centers)
        assignments = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), assignments].sum()))
        new_centers = centers.copy()
        for c in range(k):
            members = assignments == c
            if np.any(members):
                new_centers[c] = x[members].mean(axis=0)
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift <= refine.KMEANS_TOL:
            break
    d2 = refine._sq_distances(x, x_sq, centers)
    assignments = np.argmin(d2, axis=1)
    return SimpleNamespace(centers=centers, assignments=assignments, n_iter=n_iter,
                           inertia=float(d2[np.arange(n), assignments].sum()),
                           inertia_history=history)


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
    cache, _ = ref_forward_cache(z, emb, layers)
    maps = [lc.attn for lc in cache.layers]
    config = SynthesisConfig(use_out_of_box=out_of_box)
    per, _ = _box_loss_terms(layers, maps, masks, groups, 0.3, config)
    return cache, layers, maps, masks, groups, config, per


def _inbox_cache(z, emb, layers, layouts):
    """The cache of an optimizing step's first pass: ``forward_cache`` with
    each self-attention layer in ``layouts`` (by index) in an ``INBOX``
    pass, which keeps its in-box rows alone, and the lanes, by map width,
    that a gradient on those rows runs on."""
    scratch, passes = {}, {}
    for li, layout in layouts.items():
        n = layout.flats.shape[1]
        scratch.setdefault(n, core.row_scratch(n, n))
        passes[li] = SAPass(layout, INBOX, scratch[n], gated=True)
    return forward_cache(z, emb, layers, passes), scratch


def _compact_box_grads(seed, out_of_box):
    """``_loss_inputs``' latent through an optimizing step's first pass: the
    compact cache, and ``_box_loss_grads`` on its maps, given the whole-map
    terms of ``_loss_inputs``."""
    layers, z, emb, masks, groups = _setup(seed=seed)
    layouts = {li: synthesis._row_layout(masks, layer)
               for li, layer in enumerate(layers) if layer.attn_type == SELF}
    cache, scratch = _inbox_cache(z, emb, layers, layouts)
    *_, config, per = _loss_inputs(seed, out_of_box)
    return cache, _box_loss_grads(layers, cache.maps(), masks, groups, 0.3, config, per,
                                  scratch=scratch)


def _dense(grad, n_rows):
    """A ``RowGrad``'s dense form: its rows, zero elsewhere."""
    size, width = grad.rows.size, grad.held.shape[1]
    out = np.zeros((n_rows, width))
    if size:
        out[grad.rows] = grad.block(slice(0, size), np.empty((size, width)),
                                    np.empty((size, width)))
    return out


# ---------------------------------------------------------------------------
# Bitwise kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_cache_matches_reference_bitwise(seed):
    layers, z, emb, *_ = _setup(seed=seed)
    new = forward_cache(z, emb, layers)
    ref, ref_eps_hat = ref_forward_cache(z, emb, layers)
    # Synthesis passes the read-only LayerSpecs, the loops their copies.
    specs = forward_cache(z, emb, default_params(4, 8, 8, seed=seed).layers)
    for a, b, c in zip(new.layers, ref.layers, specs.layers):
        assert _same_bits(a.attn, b.attn)
        assert _same_bits(c.attn, b.attn)
    assert _same_bits(readout_eps(new, new.maps()), ref_eps_hat)


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


_WRT_SUBSETS = [wrt for size in (1, 2, 3)
                for wrt in itertools.combinations(gradients.GRADIENTS, size)]


def _wrt_upstreams():
    """(cache, attention gradients, readout gradients) in every form
    backprop takes: on a whole-map cache, the box loss's dense maps, a
    random dense gradient on every layer, encoder included, and none at
    all, each with and without a readout gradient (not both absent); on the
    compact cache of an optimizing step's first pass, the box loss's own
    gradients, row gradients on the in-box self-attention rows, with no
    readout gradient."""
    cache, layers, maps, masks, groups, config, per = _loss_inputs(3, True)
    d_eps = np.random.default_rng(3).standard_normal(cache.z.shape)
    rng = np.random.default_rng(5)
    dense = [ref_box_loss_grads(layers, maps, masks, groups, 0.3, config, per),
             [rng.standard_normal(m.shape) for m in maps]]
    cases = [(cache, upstream, readout) for upstream in dense for readout in (d_eps, None)]
    return cases + [(cache, None, d_eps), (*_compact_box_grads(3, True), None)]


@pytest.mark.parametrize("wrt", _WRT_SUBSETS)
def test_backprop_computes_only_the_requested_gradients(wrt):
    for cache, upstream, readout in _wrt_upstreams():
        full = backprop(cache, d_attn=upstream, d_eps=readout)
        part = backprop(cache, d_attn=upstream, d_eps=readout, wrt=wrt)
        assert (part.d_emb is None) == ("emb" not in wrt)
        assert (part.d_wv is None) == ("wv" not in wrt)
        assert (part.d_z is None) == (part.dxs is None) == ("z" not in wrt)
        if "emb" in wrt:
            assert _same_bits(part.d_emb, full.d_emb)
        if "wv" in wrt:
            assert len(part.d_wv) == len(full.d_wv)
            assert all(_same_bits(a, b) for a, b in zip(part.d_wv, full.d_wv))
        if "z" in wrt:
            assert _same_bits(part.d_z, full.d_z)
            assert [(h, w) for h, w, _ in part.dxs] == [(h, w) for h, w, _ in full.dxs]
            assert all(_same_bits(a, b) for (*_, a), (*_, b) in zip(part.dxs, full.dxs))


@pytest.mark.parametrize("wrt", [(), ("emb", "d_z"), ("latent",), "z"])
def test_backprop_rejects_unknown_or_empty_wrt(wrt):
    cache, *_ = _loss_inputs(0, True)
    with pytest.raises(ValueError, match="wrt"):
        backprop(cache, d_eps=np.zeros(cache.z.shape), wrt=wrt)


def test_embedding_backprop_runs_no_self_attention_softmax_backward(monkeypatch):
    # Self attention projects its keys and values from the latent, so no
    # self-attention layer reaches the embeddings: asked for d_emb alone,
    # backprop must not run the softmax backward of a self-attention map,
    # even with a readout gradient and an upstream on every layer, or with
    # a row gradient on a compact cache.
    cases = _wrt_upstreams()
    cache, _, d_eps = cases[0]
    n_tokens = cache.emb.shape[0]
    assert any(lc.attn.shape[1] != n_tokens for lc in cache.layers)  # an SA map
    columns = []
    softmax_backward = gradients.softmax_rows_backward

    def logged(attn, d_attn, out=None):
        columns.append(attn.shape[1])
        return softmax_backward(attn, d_attn, out)

    monkeypatch.setattr(gradients, "softmax_rows_backward", logged)
    for case_cache, upstream, readout in cases:
        backprop(case_cache, d_attn=upstream, d_eps=readout, wrt=("emb",))
    assert columns and set(columns) == {n_tokens}
    # The value gradient alone needs no softmax backward at all.
    columns.clear()
    backprop(cache, d_attn=None, d_eps=d_eps, wrt=("wv",))
    assert columns == []


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
    # Entries are multiples of 1/16, so every square and every partial sum
    # is exact in float64 and the energies agree bit for bit whatever the
    # summation order (random maps are held to 1e-13 further down).
    rng = np.random.default_rng(seed)
    attn = rng.integers(0, 17, (36, 36)) / 16.0
    flats = (rng.random((3, 36)) < 0.4).astype(np.float64)
    flats[2] = 0.0
    got = _sa_box_energies(attn, RowLayout(flats))
    for i, m in enumerate(flats):
        assert tuple(got[i]) == ref_sa_energies(attn, m)
        assert tuple(_sa_box_energies(attn, RowLayout(m[None, :]))[0]) == ref_sa_energies(attn, m)
    assert tuple(got[2]) == ref_sa_energies(attn, flats[2]) == (0.0, 0.0)


@pytest.mark.parametrize("seed,out_of_box", [(0, True), (1, False), (2, True)])
def test_box_loss_grads_match_reference_bitwise(seed, out_of_box):
    # The kernel runs on the compact maps of an optimizing step's first
    # pass, the reference on the whole maps, whose in-box rows are the same.
    _, layers, maps, masks, groups, config, per = _loss_inputs(seed, out_of_box)
    _, new = _compact_box_grads(seed, out_of_box)
    ref = ref_box_loss_grads(layers, maps, masks, groups, 0.3, config, per)
    assert [g is None for g in new] == [g is None for g in ref]
    for layer, attn, a, b in zip(layers, maps, new, ref):
        if a is None:
            continue
        if layer.attn_type == SELF:
            # Self attention comes back on its in-box rows only; every other
            # row of the reference is zero.
            assert isinstance(a, SARowGrad)
            assert not np.any(np.delete(b, a.rows, axis=0))
            a = _dense(a, attn.shape[0])
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
        # _mask_maps writes into its arrays: each kernel gets its own copy.
        new = _mask_maps(layers, [m.copy() for m in maps], masks, groups)
        ref = ref_mask_maps(layers, [m.copy() for m in maps], masks, groups)
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
        new = _mask_maps(layers, [attn.copy()], masks, [[1], [2]])
    with pytest.warns(DegenerateInputWarning):
        ref = ref_mask_maps(layers, [attn.copy()], masks, [[1], [2]])
    assert _same_bits(new[0], ref[0])
    assert _same_bits(new[0][0], [0.5, 0.5, 0.0, 0.0])
    assert new[0][1, 2] == 0.0 and new[0][1, 1] > 0.0


# Seeded: each run draws the same examples and writes no example database.
_seeded = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def _masking_problems(draw):
    """A decoder CA and SA layer pair on an h x w grid with row-stochastic
    maps, some of whose weights are exact zeros (so masking can kill whole
    rows), and 1-3 instances with random masks and token groups."""
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    n, cols = h * w, draw(st.integers(2, 5))
    n_inst = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sparsity = draw(st.sampled_from([0.0, 0.5, 0.9]))

    def stochastic(rows, targets):
        a = rng.random((rows, targets)) * (rng.random((rows, targets)) >= sparsity)
        a[np.arange(rows), rng.integers(0, targets, rows)] += 0.5  # no zero row
        return a / a.sum(axis=1, keepdims=True)

    layers = [LayerAttention(DECODER, CROSS, h, w, AttentionMap(stochastic(n, cols))),
              LayerAttention(DECODER, SELF, h, w, AttentionMap(stochastic(n, n)))]
    masks = [{(h, w): BinaryMask(rng.random((h, w)) < 0.5)} for _ in range(n_inst)]
    groups = [sorted(rng.choice(cols, size=rng.integers(1, cols), replace=False).tolist())
              for _ in range(n_inst)]
    return layers, masks, groups


def _writable_maps(layers):
    return [layer.amap.weights.copy() for layer in layers]


@_seeded
@given(_masking_problems())
def test_masked_maps_stay_row_stochastic(problem):
    layers, masks, groups = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        out = _mask_maps(layers, _writable_maps(layers), masks, groups)
    for attn in out:
        assert np.all(attn >= 0.0)
        assert np.all(np.abs(attn.sum(axis=1) - 1.0) <= 1e-12)


@_seeded
@given(_masking_problems())
def test_in_place_masking_matches_reference_on_a_copy(problem):
    layers, masks, groups = problem
    maps = _writable_maps(layers)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        ref = ref_mask_maps(layers, [m.copy() for m in maps], masks, groups)
        out = _mask_maps(layers, maps, masks, groups)
    assert all(a is b for a, b in zip(out, maps))  # masked where they lie
    for a, b in zip(out, ref):
        assert _same_bits(a, b)


@_seeded
@given(_masking_problems())
def test_apply_attention_masking_leaves_its_record_alone(problem):
    layers, masks, groups = problem
    record = AttentionRecord(tuple(layers))
    before = [m.tobytes() for m in record.maps()]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        masked = apply_attention_masking(record, masks, groups)
        ref = ref_mask_maps(layers, _writable_maps(layers), masks, groups)
    assert [m.tobytes() for m in record.maps()] == before
    for a, b in zip(masked.maps(), ref):
        assert _same_bits(a, b)


# The benchmark's boxes, and two overlapping boxes, one of them a small
# corner box whose rows all lie in the first row block of a 64x64 grid's
# self-attention map (4 of its 32 rows at 32x32).
_PASS_BOXES = {"benchmark": None,
               "corner": [synthesis.BoxSpec(0.0, 0.0, 0.125, 0.125),
                          synthesis.BoxSpec(0.05, 0.05, 0.6, 0.7)]}


@pytest.mark.parametrize("boxes", sorted(_PASS_BOXES))
@pytest.mark.parametrize("grid", [16, 64], ids=["16x16", "64x64"])
def test_record_api_equals_the_synthesis_passes_bitwise(grid, boxes):
    # Both self-attention pass modes and the record API run one softmax
    # division and one energy partition. A refresh step's STREAM pass also
    # sketches each masked row: its r extra readout columns equal the record
    # API's masked map times R to rounding, since the product runs in
    # another order. At 16x16 the map is one row block; at 64x64 it is 8,
    # run on the row-block workers on a machine with more than one CPU.
    dim = 4 if grid == 16 else 16
    scen = generate_scenario((grid, grid), 2, rho=0.8, seed=0, dim=dim)
    emb = _token_matrix(synthesis_tokens(scen, gain=10.0), dim)
    params = default_params(dim, grid, grid, seed=7)
    resolutions = sorted({(l.height, l.width) for l in params.layers})
    masks = synthesis._MaskSet(instance_masks_from_boxes(
        _PASS_BOXES[boxes] or scen.boxes(), resolutions))
    z = np.random.default_rng(0).standard_normal((grid, grid, dim))
    record = record_from_maps(params.layers, forward_cache(z, emb, params.layers).maps())
    masked = apply_attention_masking(record, masks, [[1], [2]])
    li = gated_layers(params.layers, SELF)[0]
    layer = params.layers[li]
    raw, layout = record.maps()[li], synthesis._row_layout(masks, layer)
    energies = _sa_box_energies(raw, layout)
    for i, mset in enumerate(masks):
        assert fg_bg_energies(record, li, mset[(layer.height, layer.width)], []) \
            == tuple(energies[i])
    run = SimpleNamespace(emb=emb, layers=params.layers, masks=masks, scratch={}, stores={})
    for mode in (INBOX, STREAM):
        cache, passes = synthesis._forward(run, z, mode)
        assert _same_bits(passes[li].energies, energies)
        assert _same_bits(cache.layers[li].attn, raw[layout.union])
        assert passes[li].sketch is None
    cache, passes = synthesis._forward(run, z, STREAM, sketch=True)
    assert _same_bits(passes[li].energies, energies)
    assert _same_bits(cache.layers[li].attn, raw[layout.union])
    expected = masked.maps()[li] @ sketch_basis(raw.shape[0])
    assert passes[li].sketch.shape == expected.shape
    assert np.max(np.abs(passes[li].sketch - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_a_refresh_step_clusters_a_sketch_and_holds_no_n_row_store(monkeypatch):
    # A mask refresh step runs a STREAM pass that sketches the first gated
    # self-attention layer's masked rows, and K-means clusters those
    # (n, r) sketches: apply_attention_masking's map on the step's latent
    # times R, to rounding. No store of the run holds n rows: each holds
    # the in-box rows of the masks it has served. The 64x64 map is 8 row
    # blocks, run on the row-block workers on a machine with more than one
    # CPU.
    sc, tokens, params, config, latent = _synthesis_64x64()
    li = gated_layers(params.layers, SELF)[0]
    n = params.layers[li].height * params.layers[li].width
    forwards, clustered, stores = [], [], []
    real_forward, real_kmeans = synthesis._forward, refine.kmeans_self_attention

    def spy_forward(run, z, mode, sketch=False):
        out = real_forward(run, z, mode, sketch)
        forwards.append((run, z.copy(), mode, sketch))
        stores.append([(len(store), synthesis._row_layout(run.masks, run.layers[i]).union.size)
                       for i, store in run.stores.items()])
        return out

    def spy_kmeans(features, k, **kwargs):
        run, z, mode, sketch = forwards[-1]
        record = record_from_maps(run.layers, forward_cache(z, run.emb, run.layers).maps())
        masked = apply_attention_masking(record, run.masks, run.groups).maps()[li]
        expected = masked @ sketch_basis(n)
        error = np.max(np.abs(features - expected)) / np.max(np.abs(expected))
        clustered.append((mode, sketch, features.shape, error))
        return real_kmeans(features, k, **kwargs)

    monkeypatch.setattr(synthesis, "_forward", spy_forward)
    monkeypatch.setattr(refine, "kmeans_self_attention", spy_kmeans)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        result = run_synthesis(tokens, params, sc.boxes(), config, sched=ScheduleParams(),
                               refinement=refine.RefinementConfig(), initial_latent=latent)
    assert result.refined
    assert [c[:3] for c in clustered] == [(STREAM, True, (n, SKETCH_COLUMNS))] * 2  # steps 6, 8
    assert all(error <= 1e-12 for *_, error in clustered)
    assert [sketch for *_, sketch in forwards].count(True) == 2
    assert all(held and all(union <= rows < n for rows, union in held) for held in stores)


# ---------------------------------------------------------------------------
# Kernels that sum in another order
# ---------------------------------------------------------------------------

def _random_box(rng):
    x0, y0 = rng.uniform(0.0, 0.6, 2)
    w, h = rng.uniform(0.25, 0.4, 2)
    return synthesis.BoxSpec(x0, y0, x0 + w, y0 + h)


@st.composite
def _sa_energy_problems(draw):
    """The decoder self-attention map of a grid x grid latent (grid 4-64,
    so (grid/2)^2 rows), row-stochastic, and 1-3 instance masks: rasterized
    boxes, which may overlap, non-rectangular pixel sets, or empty masks."""
    side = draw(st.integers(2, 32))
    n = side * side
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    attn = rng.random((n, n)) ** 4
    attn /= attn.sum(axis=1, keepdims=True)
    flats = []
    for kind in draw(st.lists(st.sampled_from(["box", "pixels", "empty"]),
                              min_size=1, max_size=3)):
        if kind == "box":
            flats.append(synthesis.rasterize_box(_random_box(rng), side, side).flat())
        elif kind == "pixels":
            flats.append((rng.random(n) < 0.4).astype(np.float64))
        else:
            flats.append(np.zeros(n))
    return attn, np.array(flats)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_sa_energy_problems())
def test_sa_box_energies_match_reference(problem):
    attn, flats = problem
    got = _sa_box_energies(attn, RowLayout(flats))
    assert got.shape == (len(flats), 2)
    for (fg, bg), m in zip(got, flats):
        if not m.any():
            assert (fg, bg) == (0.0, 0.0)
            continue
        ref_fg, ref_bg = ref_sa_energies(attn, m)
        assert abs(fg - ref_fg) <= 1e-13 * ref_fg
        assert abs(bg - ref_bg) <= 1e-13 * ref_bg


@st.composite
def _readout_problems(draw):
    """A forward cache of the default three-layer stack on a grid x grid
    latent and 1-3 instances whose masks, at every layer resolution, are
    rasterized boxes, which may overlap, or refined (non-rectangular) masks
    carried from the full grid."""
    grid = draw(st.sampled_from([4, 8, 16, 32]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    params = default_params(4, grid, grid, seed=int(rng.integers(0, 100)))
    z = rng.standard_normal((grid, grid, 4)) * draw(st.sampled_from([1.0, 10.0]))
    cache = forward_cache(z, rng.standard_normal((3, 4)) * 10.0, params.layers)
    resolutions = sorted({(l.height, l.width) for l in params.layers})
    masks = []
    for kind in draw(st.lists(st.sampled_from(["box", "refined"]), min_size=1, max_size=3)):
        if kind == "box":
            masks += instance_masks_from_boxes([_random_box(rng)], resolutions)
        else:
            refined = BinaryMask(rng.random((grid, grid)) < 0.4)
            masks.append(masks_at_all_resolutions(refined, resolutions))
    groups = [[int(rng.integers(0, 3))] for _ in masks]
    return cache, masks, groups


def _warnings_of(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [(w.category, str(w.message)) for w in caught]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_readout_problems())
def test_masked_readout_matches_readout_of_masked_maps(problem):
    cache, masks, groups = problem
    layers = [lc.work for lc in cache.layers]
    raw = [m.copy() for m in cache.maps()]
    ref, ref_warned = _warnings_of(
        lambda: readout_eps(cache, _mask_maps(layers, [m.copy() for m in raw],
                                              masks, groups)))
    new, warned = _warnings_of(_masked_readout, cache, masks, groups,
                               _stream_passes(cache, masks))
    assert _close(new, ref)
    assert warned == ref_warned
    # Only the cross-attention maps were masked where they lie.
    for layer, before, after in zip(layers, raw, cache.maps()):
        assert _same_bits(before, after) == (layer.attn_type == SELF)


def test_masked_readout_dead_row_falls_back_to_the_mean_of_permitted_values():
    # The map of the dead-row masking test: pixel 0 may reach only box A
    # (pixels 0 and 1) but attends only to pixel 2.
    attn = np.array([[0.0, 0.0, 1.0, 0.0],
                     [0.1, 0.2, 0.3, 0.4],
                     [0.25, 0.25, 0.25, 0.25],
                     [0.4, 0.3, 0.2, 0.1]])
    v = np.random.default_rng(8).standard_normal((4, 3))
    work = SimpleNamespace(kind=DECODER, attn_type=SELF, height=2, width=2)
    cache = ForwardCache(z=np.zeros((2, 2, 3)), emb=np.zeros((3, 3)),
                         layers=[LayerCache(work, None, None, None, v, attn.copy())])
    masks = [{(2, 2): BinaryMask([[1, 1], [0, 0]])},
             {(2, 2): BinaryMask([[0, 1], [0, 1]])}]
    new, warned = _warnings_of(_masked_readout, cache, masks, [[1], [2]],
                               _stream_passes(cache, masks))
    assert [category for category, _ in warned] == [DegenerateInputWarning]
    ref, ref_warned = _warnings_of(
        lambda: readout_eps(cache, _mask_maps([work], [attn.copy()], masks, [[1], [2]])))
    assert warned == ref_warned
    assert _close(new, ref)
    assert _same_bits(new[0, 0], v[:2].mean(axis=0))  # uniform over {0, 1}
    assert _same_bits(cache.layers[0].attn, attn)



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


def _sa_like_rows(n, k, seed):
    """n row-stochastic rows of length n: k bands of consecutive rows, each
    attending mostly to its own band, plus noise, so clusters are runs of
    rows as box rows are on a grid."""
    rng = np.random.default_rng(seed)
    band = np.minimum(np.arange(n) * k // n, k - 1)
    x = rng.random((n, n)) + 8.0 * (band[:, None] == band[None, :])
    return x / x.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("n,seed,structured", [
    (60, 0, False), (60, 1, True), (256, 2, True), (1024, 3, True), (1024, 4, False)])
def test_kmeans_matches_reference_means_bitwise(n, seed, structured):
    if structured:
        x = _sa_like_rows(n, 3, seed)
    else:
        x = np.random.default_rng(seed).random((n, n))
    cold = refine.kmeans_self_attention(x, 3, seed=seed)
    # A warm start from the converged centers, and one with a duplicated
    # center, whose cluster empties and keeps its previous center.
    for prev in (None, cold.centers, np.stack([x[0], x[1], x[0]])):
        new = cold if prev is None else refine.kmeans_self_attention(
            x, 3, prev_centers=prev, seed=seed)
        ref = ref_kmeans(x, 3, prev_centers=prev, seed=seed)
        assert _same_bits(new.centers, ref.centers)
        assert np.array_equal(new.assignments, ref.assignments)
        assert new.n_iter == ref.n_iter
        assert new.inertia == ref.inertia
        assert new.inertia_history == ref.inertia_history


# ---------------------------------------------------------------------------
# Row-restricted backward
# ---------------------------------------------------------------------------

_CACHES = {}


def _row_grad_inputs(grid):
    """The default three-layer stack on a grid x grid latent (layer 2, the
    decoder SA map, has (grid/2)^2 rows), with its whole-map forward caches:
    one as computed, and one whose SA key projection is zeroed after the
    forward pass, so that dK does not reach that layer's dX and dX is
    dQ Wq^T alone."""
    if grid not in _CACHES:
        rng = np.random.default_rng(grid)
        z = rng.standard_normal((grid, grid, 4))
        emb = rng.standard_normal((3, 4))
        params = default_params(4, grid, grid, seed=grid)
        plain = forward_cache(z, emb, params.layers)
        query_only = forward_cache(z, emb, workspace(params))
        query_only.layers[2].work.wk[...] = 0.0
        _CACHES[grid] = z, emb, params, (plain, query_only)
    return _CACHES[grid]


@st.composite
def _row_grads(draw):
    """A grid, one to three random 0/1 instance masks on its self-attention
    map whose union has 0, 1, n/3, n - 1 or n rows, some rows in several
    instances, and a random coefficient row per instance."""
    grid = draw(st.sampled_from([4, 8, 16, 64]))
    n = (grid // 2) ** 2
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.sampled_from([0, 1, n // 3, n - 1, n]))
    k = draw(st.integers(1, 3))
    union = rng.choice(n, size=size, replace=False)
    flats = np.zeros((k, n))
    flats[:, union] = rng.random((k, size)) < 0.3
    flats[rng.integers(0, k, size), union] = 1.0  # every union row in some instance
    return grid, flats, list(rng.standard_normal((k, n)))


def _close(a, b):
    scale = max(np.max(np.abs(b)), np.finfo(float).tiny)
    return np.max(np.abs(a - b)) <= 1e-12 * scale


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_row_grads())
@example((64, np.zeros((2, 1024)), list(np.random.default_rng(0).standard_normal((2, 1024)))))
@example((64, np.ones((2, 1024)), list(np.random.default_rng(1).standard_normal((2, 1024)))))
def test_backprop_on_row_grad_matches_its_dense_form(problem):
    # The self-attention box-loss gradient on the compact in-box rows of an
    # INBOX pass, run on its lanes, against its dense form on the whole
    # map. A row gradient is self-attention's alone: none reaches a
    # cross-attention layer, which synthesis differentiates densely.
    grid, flats, coefs = problem
    z, emb, params, wholes = _row_grad_inputs(grid)
    n = flats.shape[1]
    layout = RowLayout(flats)
    for whole in wholes:
        layers = workspace(params)
        compact, scratch = _inbox_cache(z, emb, layers, {2: layout})
        query_only = not whole.layers[2].work.wk.any()
        if query_only:
            layers[2].wk[...] = 0.0
        grad = SARowGrad(compact.layers[2].attn, coefs, layout, scratch[n])
        new = backprop(compact, d_attn=[None, None, grad], d_eps=None)
        ref = backprop(whole, d_attn=[None, None, _dense(grad, n)], d_eps=None)
        # dX of a layer that dK does not reach is dQ Wq^T: zero off the
        # in-box rows. A product over other rows may take another BLAS
        # kernel (one row is a matrix-vector product), so dQ, and dK,
        # which sums over fewer rows, are held to rounding.
        (*_, a), = new.dxs
        (*_, b), = ref.dxs
        if query_only:
            assert not np.any(np.delete(a, layout.union, axis=0))
            assert not np.any(np.delete(b, layout.union, axis=0))
        assert _close(a, b)
        assert _close(new.d_z, ref.d_z)
        assert _close(new.d_emb, ref.d_emb)
        for a, b in zip(new.d_wv, ref.d_wv):
            assert _close(a, b)


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------

# (grid, seed, lambda_rec, lambda_attn, coarse_iters, instances): both
# grids, both reconstruction weights, each coarse/fine split from
# penalty-only (0) to reward-only (coarse_iters == total_iters), a zero
# attention weight, and three instances (four tokens, subsets of one to
# three) at 8x8. Each two-instance case's ID ends in the True/False value it
# once passed to a per-pixel attention scaling that no longer exists; the
# tag keeps the IDs stable and changes nothing in the run.
LEARNING_CONFIGS = [
    pytest.param(*case, 2, id="-".join(map(str, (*case, tag))))
    for *case, tag in [
        (grid, seed, lambda_rec, 1.0, coarse, (seed + coarse // 50) % 2 == 1)
        for grid in (8, 16)
        for lambda_rec in (0.0, 1.0)
        for seed, coarse in zip((0, 1, 2, 0, 1, 2), (0, 50, 100, 200, 400, 800))
        if grid == 8 or coarse <= 200
    ] + [(8, 1, 1.0, 0.0, 50, False), (16, 2, 0.0, 0.0, 0, True)]
] + [
    pytest.param(8, 0, lambda_rec, 1.0, 50, 3, id=f"8-0-{lambda_rec}-1.0-50-3-instances")
    for lambda_rec in (0.0, 1.0)
]


def _learning_case(grid, seed, lambda_rec, lambda_attn, coarse, instances=2):
    """The scenario, config, schedule and params of a LEARNING_CONFIGS case."""
    scen = generate_scenario((grid, grid), instances, rho=0.8, seed=seed, dim=8)
    params = default_params(8, grid, grid, seed=7)
    schedule = toy_schedule(50, 0.9999, 0.9)
    # A reward-only run ends with the coarse stage; the others add 40 more
    # embedding iterations, then 20 value-refinement (stage 2) iterations.
    stage1 = coarse if coarse == 800 else coarse + 40
    config = learning.LearningConfig(
        lambda_rec=lambda_rec, lambda_attn=lambda_attn,
        total_iters=stage1 if coarse == 800 else stage1 + 20,
        stage1_iters=stage1, coarse_iters=coarse,
        learn_rate=2000.0 if lambda_rec == 0.0 else 0.5, stage2_rate=1e-5,
        seed=seed)
    return scen, config, schedule, params


@pytest.mark.parametrize("grid,seed,lambda_rec,lambda_attn,coarse,instances",
                         LEARNING_CONFIGS)
def test_run_semantic_learning_matches_reference_loop_bitwise(
        grid, seed, lambda_rec, lambda_attn, coarse, instances):
    scen, config, schedule, params = _learning_case(grid, seed, lambda_rec, lambda_attn,
                                                    coarse, instances)
    new = learning.run_semantic_learning(scen, config, schedule=schedule, params=params)
    emb, emb_at_coarse_end, wv, trace = ref_run_semantic_learning(
        scen, config, schedule, params)
    assert _same_bits(new.embedding_matrix, emb)
    assert _same_bits(new.emb_at_coarse_end, emb_at_coarse_end)
    for layer, ref_wv in zip(new.params.layers, wv):
        assert _same_bits(layer.wv, ref_wv)
    assert [r.branch for r in new.trace] == [r.branch for r in trace]
    for field in ("iteration", "total"):
        assert _same_bits([getattr(r, field) for r in new.trace],
                          [getattr(r, field) for r in trace])
    # The reference evaluates every term; the loop evaluates a term only
    # where its weight is > 0 and traces nan for the other.
    for field, weight in (("rec_loss", lambda_rec), ("attn_loss", lambda_attn)):
        values = [getattr(r, field) for r in new.trace]
        if weight > 0.0:
            assert _same_bits(values, [getattr(r, field) for r in trace])
        else:
            assert np.isnan(values).all()
    # Where a term is active the run learned something, so equal bits are
    # not two runs that both stood still.
    if lambda_rec + lambda_attn > 0.0 and coarse < 800:
        assert not _same_bits(new.embedding_matrix, new.emb_at_coarse_end)
    if lambda_rec > 0.0 and coarse < 800:
        assert not all(_same_bits(a.wv, b.wv)
                       for a, b in zip(new.params.layers, params.layers))


@pytest.mark.parametrize("grid,seed,lambda_rec,lambda_attn,coarse,instances",
                         LEARNING_CONFIGS)
def test_run_semantic_learning_is_bitwise_equal_at_any_chunk_size(
        monkeypatch, grid, seed, lambda_rec, lambda_attn, coarse, instances):
    # The chunk bound is set to hold one iteration, then seven; each run
    # must equal the default-bound run bit for bit. With the reconstruction
    # term every iteration is evaluated, so each frozen pass is one chunk:
    # one chunk ends at stage1_iters (cut short where 7 does not divide it),
    # and at seven some chunk straddles coarse_iters unless 7 divides it or
    # it is stage1_iters itself.
    scen, config, schedule, params = _learning_case(grid, seed, lambda_rec, lambda_attn,
                                                    coarse, instances)

    def run():
        res = learning.run_semantic_learning(scen, config, schedule=schedule, params=params)
        return (res.embedding_matrix, res.emb_at_coarse_end,
                [layer.wv for layer in res.params.layers],
                [(r.iteration, r.branch, r.rec_loss, r.attn_loss, r.total)
                 for r in res.trace])

    default = run()
    layers = params.layers if lambda_rec else \
        [params.layers[i] for i in gated_layers(params.layers, CROSS)]
    per_iteration = learning._iteration_entries(scen.z0.shape, layers, instances + 1)
    frozen_pass = learning.frozen_pass
    for chunk in (1, 7):
        batches = []

        def logged_frozen_pass(z, *args, **kwargs):
            batches.append(z.shape[0])
            return frozen_pass(z, *args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(learning, "CHUNK_ENTRIES", chunk * per_iteration)
            mp.setattr(learning, "frozen_pass", logged_frozen_pass)
            chunked = run()
        assert _same_bits(chunked[0], default[0])
        assert _same_bits(chunked[1], default[1])
        assert all(_same_bits(a, b) for a, b in zip(chunked[2], default[2]))
        assert [row[:2] for row in chunked[3]] == [row[:2] for row in default[3]]
        assert _same_bits([row[2:] for row in chunked[3]], [row[2:] for row in default[3]])
        assert all(size <= chunk for size in batches)
        if lambda_rec:
            ends = list(itertools.accumulate(batches))
            assert ends[-1] == config.total_iters
            assert config.stage1_iters in ends
            if chunk == 7:
                assert max(batches) == 7
                straddled = any(end - size < coarse < end
                                for end, size in zip(ends, batches))
                assert straddled == (coarse < config.stage1_iters and coarse % 7 != 0)


class _GappedIds:
    """A scenario's latent and masks with token ids 1 and 3: token 2 has a
    column in every cross-attention map but no instance, so it is never
    learned, and the learnable embedding rows are not consecutive."""

    def __init__(self, scen):
        self.z0, self.masks = scen.z0, scen.masks

    def instance_set(self):
        return learning.InstanceSet(self.masks, (1, 3))


@pytest.mark.parametrize("lambda_rec", [0.0, 1.0])
def test_learning_with_gapped_token_ids_matches_reference_loop_bitwise(lambda_rec):
    scen, config, schedule, params = _learning_case(8, 1, lambda_rec, 1.0, 50)
    gapped = _GappedIds(scen)
    new = learning.run_semantic_learning(gapped, config, schedule=schedule, params=params)
    emb, emb_at_coarse_end, wv, trace = ref_run_semantic_learning(
        gapped, config, schedule, params)
    assert new.embedding_matrix.shape[0] == 4
    assert not new.embedding_matrix[[0, 2]].any()
    assert _same_bits(new.embedding_matrix, emb)
    assert _same_bits(new.emb_at_coarse_end, emb_at_coarse_end)
    for layer, ref_wv in zip(new.params.layers, wv):
        assert _same_bits(layer.wv, ref_wv)
    assert _same_bits([r.total for r in new.trace], [r.total for r in trace])


def test_a_64x64_iteration_fills_a_chunk_alone():
    # One 64x64 iteration's buffers exceed the chunk bound, so the loop runs
    # one iteration per chunk and holds no more than the unchunked loop.
    params = default_params(16, 64, 64, seed=0)
    assert learning._iteration_entries((64, 64, 16), params.layers, 3) \
        > learning.CHUNK_ENTRIES


def _ref_sa_box_energies(attn, flats):
    return np.array([ref_sa_energies(attn, m) for m in flats]).reshape(len(flats), 2)


def _ref_synthesis_forward(z, emb, layers, plans=None):
    """A synthesis step's forward pass on the reference kernels: the whole
    cache, and for each self-attention pass (``sapass.SAPass``) what it
    computes from its rows, from the whole map: the energies of a gated
    layer, the output of the masked map and, given a basis (a refresh
    step's sketch), the masked map times it."""
    cache, _ = ref_forward_cache(z, emb, layers)
    for li, sa in (plans or {}).items():
        lc = cache.layers[li]
        flats = sa.layout.flats
        masks = [{(lc.work.height, lc.work.width):
                  BinaryMask(m.reshape(lc.work.height, lc.work.width))} for m in flats]
        if sa.gated:
            sa.energies = _ref_sa_box_energies(lc.attn, flats)
        masked, = ref_mask_maps([lc.work], [lc.attn], masks, [[0]] * len(masks))
        sa.out = masked @ lc.v
        if sa.basis is not None:
            sa.sketch = masked @ sa.basis
    return cache


def _steps_close(a, b) -> bool:
    for s, t in zip(a, b):
        for name in ("per_instance", "total", "total_after", "leakage"):
            x, y = np.atleast_1d(getattr(s, name)), np.atleast_1d(getattr(t, name))
            if np.any(np.abs(x - y) > 1e-12 * np.abs(y)):
                return False
    return len(a) == len(b) and [(s.step, s.t, s.alpha_t) for s in a] == \
        [(t.step, t.t, t.alpha_t) for t in b]


@pytest.mark.parametrize("grid", [16, 64], ids=["16x16", "64x64"])
def test_run_synthesis_with_reference_kernels_matches_to_rounding(monkeypatch, grid):
    # The self-attention energies and the masked readout sum in another
    # order than their references, so the run agrees to rounding: z_final
    # to 1e-12 absolute, the step metrics to 1e-12 relative, the masks and
    # ``refined`` exactly. At 16x16 every map is one row block; at 64x64
    # (the benchmark's inputs on 8 steps: 4 optimize, all mask, 2 refresh)
    # the self-attention map is 8 row blocks, run on the row-block workers
    # on a machine with more than one CPU.
    if grid == 16:
        scen = generate_scenario((16, 16), 2, rho=0.8, seed=0, dim=4)
        tokens = synthesis_tokens(scen, gain=10.0)
        params = default_params(4, 16, 16, seed=7)
        config, latent = SynthesisConfig(beta=128.0, seed=3), None
    else:
        scen, tokens, params, config, latent = _synthesis_64x64()
    boxes = scen.boxes()

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateInputWarning)
            return run_synthesis(tokens, params, boxes, config,
                                 sched=ScheduleParams(),
                                 refinement=refine.RefinementConfig(),
                                 initial_latent=latent)

    new = run()
    with monkeypatch.context() as mp:
        mp.setattr(synthesis, "forward_cache", _ref_synthesis_forward)
        mp.setattr(synthesis, "backprop", ref_backprop)
        mp.setattr(synthesis, "_box_loss_grads",
                   lambda *args, scratch=None: ref_box_loss_grads(*args))
        # ref_mask_maps returns new arrays: the step must use what it returns.
        mp.setattr(synthesis, "_mask_maps", ref_mask_maps)
        mp.setattr(refine, "box_blur", ref_box_blur)
        mp.setattr(refine, "_sq_distances",
                   lambda x, x_sq, centers: ref_sq_distances(x, centers))
        ref = run()
    assert new.refined and ref.refined
    assert np.max(np.abs(new.z_final - ref.z_final)) <= 1e-12
    assert _steps_close(new.steps, ref.steps)
    for a, b in zip(new.masks, ref.masks):
        assert {k: m.bits.tobytes() for k, m in a.items()} == \
               {k: m.bits.tobytes() for k, m in b.items()}
