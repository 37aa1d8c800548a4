"""Hand-written reverse-mode derivatives for the toy denoiser.

No autodiff anywhere: the chain rule below is spelled out once and verified
against central finite differences by the test suite and the `gradcheck` CLI
command (relative error <= 1e-5 on every coordinate).

Forward, per layer (s = 1/sqrt(d)):

    X = blockmean(z)            # (n, d)
    Q = X Wq
    src = emb (cross) | X (self)
    K = src Wk ;  V = src Wv
    A = rowsoftmax(s Q K^T)
    O = A V
    eps_hat = mean_l replicate(O_l)

Backward, given dL/dA (attention losses) and dL/deps_hat (reconstruction):

    dO  = replicate_adjoint(d_eps) / L
    dA += dO V^T
    dZ  = A * (dA - rowsum(dA * A))      # softmax backward on logits
    dQ  = s dZ K ;  dK = s dZ^T Q ;  dV = A^T dO
    dX  = dQ Wq^T  (+ dK Wk^T + dV Wv^T for self attention)
    d_emb += dK Wk^T + dV Wv^T           # cross attention only
    d_z   += blockmean_adjoint(dX)
    dWv = src^T dV

``backprop`` computes only the gradients its caller names in ``wrt`` (a
subset of "emb", "wv" and "z"; all three by default) and returns None for
the others. Per layer it computes only what reaches a requested output:

    dV               with a readout gradient, for wv; for emb (cross
                     attention) or z (self attention) through d_src
    softmax backward for z; for emb on a cross-attention layer
    dQ               for z
    dK               for emb on a cross-attention layer; for z on a
                     self-attention layer

Self attention projects its keys and values from the latent, so no
self-attention layer reaches the embeddings, and ``wrt=("emb",)`` skips
every one. dWv needs no softmax backward: ``wrt=("wv",)`` runs dV alone.

The softmax backward, dQ and dK run a block of rows at a time, so no n x n
buffer is built. A map whose blocks hold all its rows at once (every
cross-attention map, and self attention up to 32x32 grids) is done in one
block, in exactly the arithmetic of the unblocked formulas, and with a
dense dA ``backprop`` runs that block alone, with no block loop.

``backprop`` makes its per-layer decisions for a ``wrt`` (which products a
layer needs, its transposed weights, whether its map is one row block)
once per cache and keeps them in ``ForwardCache.backward``. The learning
loop backpropagates through one cache per chunk of iterations, which
``denoiser.iteration_cache`` rewrites for each, so it makes them once per
chunk; the weights are updated in place, so the transposed views stay
current.

Box control differentiates self attention on in-box rows only, and
synthesis's forward pass keeps a self-attention map on those rows alone
(``LayerCache.rows``): one compact (rows x n) array. Its box-loss gradient
is a ``RowGrad`` on exactly those rows (``sapass.SARowGrad``), with no
readout gradient, so every other row of dZ and dQ is zero and dK sums over
the kept rows alone. The pass reads the compact rows in place, and each
block computes its gradient rows as it reads them, on the row-block
workers' lanes (``core.row_scratch``), in blocks of half a lane buffer
(``core.lane_blocks``), its dA and dZ in one buffer. ``backprop`` refuses
a ``RowGrad`` on any other map or with a readout gradient, and any other
gradient on a map kept on some rows.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import CROSS, lane_blocks, map_row_blocks, row_blocks, row_sums
from .denoiser import ForwardCache, LayerCache, _blocks, _cell_sums

GRADIENTS = ("emb", "wv", "z")
_GRADIENT_SET = frozenset(GRADIENTS)


@dataclass
class BackpropResult:
    """Gradients on the embeddings (n_tokens, d) as ``d_emb``, on each
    layer's value projection (d, d) as ``d_wv``, and on the latent (H, W, d)
    as ``d_z``, with each reached layer's dX in ``dxs``. A gradient the call
    did not request is None (``dxs`` goes with ``d_z``).
    """

    d_emb: "np.ndarray | None"
    d_wv: "list[np.ndarray] | None"
    d_z: "np.ndarray | None"
    dxs: "list[tuple[int, int, np.ndarray]] | None"  # (h, w, dX) per layer reached


def _spread_latent_grad(shape: "tuple[int, int, int]",
                        dxs: "list[tuple[int, int, np.ndarray]]") -> np.ndarray:
    """The adjoint of each layer's block mean, summed in layer order: every
    (h, w) layer's dX, divided by the block size, added over its blocks."""
    H, W, _ = shape
    d_z = np.zeros(shape)
    for h, w, dx in dxs:
        size = (H // h) * (W // w)
        blocks = _blocks(d_z, h, w)
        blocks += (dx if size == 1 else dx / size).reshape(h, 1, w, 1, -1)
    return d_z


class RowGrad:
    """dL/dA on the rows ``rows`` (sorted, without repeats) of a map that the
    forward cache keeps on those rows alone; every other row is zero.
    ``backprop`` reads it one block at a time on the lanes ``scratch`` (of
    ``core.row_scratch``): ``block(blk, out, tmp)`` writes the values of
    rows[blk] into ``out``, a buffer of their shape, as is ``tmp``, and
    returns it."""

    rows: np.ndarray
    scratch: "list[np.ndarray]"

    def block(self, blk: slice, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def softmax_rows_backward(attn: np.ndarray, d_attn: np.ndarray,
                          out: "np.ndarray | None" = None) -> np.ndarray:
    """Gradient through a row softmax: maps dL/dA to dL/dlogits, into
    ``out`` if given (an array of their shape, not ``d_attn``)."""
    out = d_attn * attn if out is None else np.multiply(d_attn, attn, out=out)
    np.subtract(d_attn, row_sums(out), out=out)
    out *= attn
    return out


def _softmax_block(lc, upstream, d_out, scale: float, dq, want_dk: bool, blk: slice,
                   buf: "np.ndarray | None" = None, dk_out=None):
    """One row block of a layer's softmax backward (see ``_softmax_rows``): its
    dA, dZ and dQ rows, written into ``dq`` if given, and its dK partial,
    dZ^T Q (unscaled), returned if ``want_dk``. ``blk`` indexes the rows
    the cache holds of the map (``lc.rows``, or every row). On a map kept
    on some rows, the ``RowGrad`` ``upstream`` runs on the lane buffer
    ``buf``, whose two halves take the block's dA and dZ, and ``dk_out``
    maps the block's start to an array of the calling thread for its
    partial."""
    r = blk if lc.rows is None else lc.rows[blk]
    dz_out = None
    if d_out is not None:
        da = d_out[blk] @ lc.v.T
        if upstream is not None:
            da = da + upstream[blk]
    elif lc.rows is None:
        # No readout gradient: dO = 0, so dA is the upstream alone and dV,
        # dWv are zero.
        da = upstream[blk]
    else:
        size, half = blk.stop - blk.start, buf.shape[0] // 2
        dz_out = buf[half:half + size]
        da = upstream.block(blk, buf[:size], dz_out)
    dz_logits = softmax_rows_backward(lc.attn[blk], da, dz_out)
    if dq is not None:
        dq[r] = scale * (dz_logits @ lc.k)
    if not want_dk:
        return None
    if dk_out is None:
        return dz_logits.T @ lc.q[r]
    return np.matmul(dz_logits.T, lc.q[r], out=dk_out[blk.start])


def _softmax_rows(lc, upstream, d_out, scale: float, want_dq: bool, want_dk: bool):
    """A layer's softmax backward, one ``_softmax_block`` task per row
    block: dQ (zero on rows the map does not keep) if ``want_dq`` and the
    unscaled dK, the block partials added in block order, if ``want_dk``.
    A dense dA runs its blocks inline; a ``RowGrad`` runs on its lanes, in
    blocks of half a lane buffer (``core.lane_blocks``), their dK partials
    in arrays of the calling thread."""
    n, d = lc.q.shape
    width = lc.attn.shape[1]
    dq = np.zeros((n, d)) if want_dq else None
    if lc.rows is None:
        parts = [_softmax_block(lc, upstream, d_out, scale, dq, want_dk, blk)
                 for blk in row_blocks(n, width)]
    else:
        scratch = upstream.scratch
        blocks = lane_blocks(lc.rows.size, scratch[0].shape[0])
        dk_out = dict(zip([blk.start for blk in blocks],
                          np.empty((len(blocks), *lc.k.shape)))) if want_dk else None
        task = functools.partial(_softmax_block, lc, upstream, d_out, scale, dq, want_dk,
                                 dk_out=dk_out)
        parts = map_row_blocks(task, lc.rows.size, width, scratch, blocks)
    if not want_dk:
        return dq, None
    dk = parts[0] if parts else np.zeros_like(lc.k)
    for i in range(1, len(parts)):
        dk = dk + parts[i]
    return dq, dk


class _LayerBackward(NamedTuple):
    """One layer's part of a backward pass for one ``wrt``: what it
    computes whatever the upstream gradients, decided once per cache."""

    idx: int
    lc: LayerCache
    cross: bool
    want_src: bool         # d_src: on the embeddings (cross) or on X (self)
    through_softmax: bool  # dZ, and from it dQ and dK
    wants_dv: bool         # dV, given a readout gradient: for wv or d_src
    res: "tuple[int, int]"
    wq_t: np.ndarray       # the weights transposed, as views: written in
    wk_t: np.ndarray       # place by a loop that updates them, they stay
    wv_t: np.ndarray       # current
    one_block: bool        # the whole map is one row block


class _BackwardPlan(NamedTuple):
    want_emb: bool
    want_wv: bool
    want_z: bool
    d: int
    scale: float
    layers: "list[_LayerBackward]"


def _backward_plan(cache: ForwardCache, wrt) -> _BackwardPlan:
    """``backprop``'s decisions for ``wrt`` on ``cache``'s layers, after
    checking ``wrt``."""
    if not wrt or isinstance(wrt, str) or not _GRADIENT_SET.issuperset(wrt):
        raise ValueError(f"wrt must be a nonempty subset of {GRADIENTS}, got {wrt!r}")
    want_emb, want_wv, want_z = "emb" in wrt, "wv" in wrt, "z" in wrt
    layers = []
    for idx, lc in enumerate(cache.layers):
        work = lc.work
        cross = work.attn_type == CROSS
        # d_src, the gradient on the rows keys and values are projected from
        # (the embeddings, or X itself), is wanted for emb (cross) or z (self).
        want_src = want_emb if cross else want_z
        layers.append(_LayerBackward(
            idx, lc, cross, want_src, want_z or (cross and want_emb), want_wv or want_src,
            (work.height, work.width), work.wq.T, work.wk.T, work.wv.T,
            len(row_blocks(lc.q.shape[0], lc.attn.shape[1])) == 1))
    d = cache.z.shape[2]
    return _BackwardPlan(want_emb, want_wv, want_z, d, 1.0 / math.sqrt(d), layers)


def backprop(cache: ForwardCache,
             d_attn: "list[np.ndarray | RowGrad | None] | None" = None,
             d_eps: np.ndarray | None = None,
             wrt: "tuple[str, ...]" = GRADIENTS) -> BackpropResult:
    """Push upstream gradients back to embeddings, value weights and latent.

    d_attn: per-layer gradients on the raw attention maps, dense or
    ``RowGrad`` (None entries skip a layer); d_eps: gradient on the noise
    prediction. Either may be None, and a None term costs no backprop (with
    d_eps None, dV and dWv are not computed), so callers pass None, not
    zeros, for a zero-weighted term. wrt: the gradients to compute, a
    nonempty subset of ``GRADIENTS``; the others are returned as None, and
    no work is done that reaches only them. The per-layer decisions for a
    tuple ``wrt`` are made on the cache's first call with it and kept in
    ``cache.backward``, so a loop that backpropagates through one cache
    many times (learning's) makes them once.
    """
    plan = cache.backward.get(wrt) if type(wrt) is tuple else None
    if plan is None:
        plan = _backward_plan(cache, wrt)
        if type(wrt) is tuple:
            cache.backward[wrt] = plan
    want_emb, want_wv, want_z, d, scale, layers = plan
    n_layers = len(layers)
    d_emb = np.zeros(cache.emb.shape) if want_emb else None
    d_wv: "list[np.ndarray] | None" = [] if want_wv else None
    dxs: "list[tuple[int, int, np.ndarray]] | None" = [] if want_z else None
    d_outs: "dict[tuple[int, int], np.ndarray]" = {}  # dO, one per resolution

    for (idx, lc, cross, want_src, through_softmax, wants_dv, res, wq_t, wk_t, wv_t,
         one_block) in layers:
        upstream = None if d_attn is None else d_attn[idx]
        with_dv = wants_dv and d_eps is not None
        if (upstream is None and d_eps is None) or not (through_softmax or with_dv):
            if want_wv:
                d_wv.append(np.zeros((d, d)))
            continue

        # A map kept on some rows (synthesis's in-box rows) backpropagates a
        # RowGrad on exactly those rows, with no readout gradient; a RowGrad
        # needs such a map.
        rowwise = isinstance(upstream, RowGrad)
        if (rowwise or lc.rows is not None) and not (
                rowwise and d_eps is None and np.array_equal(upstream.rows, lc.rows)):
            raise ValueError("a RowGrad backpropagates only on a map cached on its rows, "
                             "with no readout gradient, and such a map only a RowGrad")

        d_out = None
        if d_eps is not None:
            d_out = d_outs.get(res)
            if d_out is None:
                d_out = d_outs[res] = _cell_sums(d_eps, *res) / n_layers

        d_src = dx = None
        if through_softmax:
            if one_block and lc.rows is None:
                # A dense map of one row block is that block: no block loop.
                dq = np.empty(lc.q.shape) if want_z else None
                dk = _softmax_block(lc, upstream, d_out, scale, dq, want_src, slice(None))
            else:
                dq, dk = _softmax_rows(lc, upstream, d_out, scale, want_z, want_src)
            if dq is not None:
                dx = dq @ wq_t
            if want_src:
                d_src = (scale * dk) @ wk_t
                if not cross:
                    d_src = dx + d_src
        if with_dv:
            dv = lc.attn.T @ d_out
            if want_src:
                d_src = d_src + dv @ wv_t
            if want_wv:
                d_wv.append((cache.emb if cross else lc.x).T @ dv)
        elif want_wv:
            d_wv.append(np.zeros((d, d)))

        if cross and want_emb:
            d_emb += d_src
        if want_z:
            dxs.append((*res, dx if cross else d_src))

    d_z = None if dxs is None else _spread_latent_grad(cache.z.shape, dxs)
    return BackpropResult(d_emb=d_emb, d_wv=d_wv, d_z=d_z, dxs=dxs)
