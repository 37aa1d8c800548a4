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

The softmax backward, dQ and dK run over the rows of dA that can be
non-zero, a block of rows at a time, so no n x n buffer is built. With no
readout gradient those are the rows a ``RowGrad`` names: box control
differentiates self attention on in-box rows only, every other row of dZ
and dQ is zero, and dK sums over the named rows alone. A dense dA is the
all-rows case of the same pass; a map whose blocks hold all its rows at
once (every cross-attention map, and self attention up to 32x32 grids) is
done in one block, in exactly the arithmetic of the unblocked formulas.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CROSS, row_blocks
from .denoiser import ForwardCache, _blocks, _cell_rows

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


@dataclass(frozen=True)
class RowGrad:
    """dL/dA on some rows of an attention map: row ``rows[j]`` of the
    gradient is ``values[j]``, and every other row is zero. ``rows`` is
    sorted, without repeats."""

    rows: np.ndarray    # (r,) row indices
    values: np.ndarray  # (r, columns)

    def dense(self, n_rows: int) -> np.ndarray:
        out = np.zeros((n_rows, self.values.shape[1]))
        out[self.rows] = self.values
        return out


def softmax_rows_backward(attn: np.ndarray, d_attn: np.ndarray) -> np.ndarray:
    """Gradient through a row softmax: maps dL/dA to dL/dlogits."""
    out = d_attn * attn
    inner = out.sum(axis=1, keepdims=True)
    np.subtract(d_attn, inner, out=out)
    out *= attn
    return out


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
    no work is done that reaches only them.
    """
    if not wrt or isinstance(wrt, str) or not _GRADIENT_SET.issuperset(wrt):
        raise ValueError(f"wrt must be a nonempty subset of {GRADIENTS}, got {wrt!r}")
    want_emb, want_wv, want_z = "emb" in wrt, "wv" in wrt, "z" in wrt
    d = cache.z.shape[2]
    n_layers = len(cache.layers)
    scale = 1.0 / np.sqrt(d)
    d_emb = np.zeros_like(cache.emb) if want_emb else None
    d_wv: "list[np.ndarray] | None" = [] if want_wv else None
    dxs: "list[tuple[int, int, np.ndarray]] | None" = [] if want_z else None
    d_outs: "dict[tuple[int, int], np.ndarray]" = {}  # dO, one per resolution

    for idx, lc in enumerate(cache.layers):
        work = lc.work
        cross = work.attn_type == CROSS
        upstream = None if d_attn is None else d_attn[idx]
        # d_src, the gradient on the rows keys and values are projected from
        # (the embeddings, or X itself), is wanted for emb (cross) or z (self).
        want_src = want_emb if cross else want_z
        through_softmax = want_z or (cross and want_emb)
        with_dv = d_eps is not None and (want_wv or want_src)
        if (upstream is None and d_eps is None) or not (through_softmax or with_dv):
            if want_wv:
                d_wv.append(np.zeros((d, d)))
            continue

        d_out = None
        if d_eps is not None:
            res = (work.height, work.width)
            d_out = d_outs.get(res)
            if d_out is None:
                d_out = d_outs[res] = _cell_rows(d_eps, *res, np.ndarray.sum) / n_layers

        d_src = dx = None
        if through_softmax:
            n = lc.attn.shape[0]
            rows = None  # None: every row of dA can be non-zero
            if isinstance(upstream, RowGrad):
                if d_out is None:
                    rows, upstream = upstream.rows, upstream.values
                else:  # the readout gradient reaches every row
                    upstream = upstream.dense(n)
            dq = np.zeros((n, d)) if want_z else None  # rows outside ``rows`` stay zero
            dk = None
            for blk in row_blocks(n if rows is None else rows.size, lc.attn.shape[1]):
                r = blk if rows is None else rows[blk]
                if d_out is None:
                    # No readout gradient: dO = 0, so dA is the upstream alone
                    # and dV, dWv are zero.
                    da = upstream[blk]
                else:
                    da = d_out[blk] @ lc.v.T
                    if upstream is not None:
                        da = da + upstream[blk]
                dz_logits = softmax_rows_backward(lc.attn[r], da)
                if dq is not None:
                    dq[r] = scale * (dz_logits @ lc.k)
                if want_src:
                    part = dz_logits.T @ lc.q[r]
                    dk = part if dk is None else dk + part
            if dq is not None:
                dx = dq @ work.wq.T
            if want_src:
                dk = np.zeros_like(lc.k) if dk is None else scale * dk
                d_src = dk @ work.wk.T
                if not cross:
                    d_src = dx + d_src
        if with_dv:
            dv = lc.attn.T @ d_out
            if want_src:
                d_src = d_src + dv @ work.wv.T
            if want_wv:
                src = cache.emb if cross else lc.x
                d_wv.append(src.T @ dv)
        elif want_wv:
            d_wv.append(np.zeros((d, d)))

        if cross and want_emb:
            d_emb += d_src
        if want_z:
            dxs.append((work.height, work.width, dx if cross else d_src))

    d_z = None if dxs is None else _spread_latent_grad(cache.z.shape, dxs)
    return BackpropResult(d_emb=d_emb, d_wv=d_wv, d_z=d_z, dxs=dxs)
