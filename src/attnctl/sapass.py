"""The self-attention pass of a synthesis step.

A synthesis forward pass computes a self-attention map one row block at a
time, on the row-block workers (``core.map_row_blocks``), and reads from
each block, while it is hot, all that the step needs of it
(``SAPass``, the row plan of ``denoiser._attention``):

- the box energies' partial sums, over the block's in-box rows;
- the readout: the raw ``A V`` of rows in no box, and the masked readout
  of in-box rows, from their permitted columns alone;
- on a mask refresh, the masked rows, written back into the whole map.

What it keeps of the map is one compact (rows x n) array of the in-box rows,
in the layout of a ``gradients.RowGrad``'s values, or, on a refresh, the
whole masked map; rows in no box are never stored otherwise. The box-loss
gradient on those rows (``SARowGrad``) is computed from the compact rows a
block at a time, as ``backprop`` reads it.

Masking permits each in-box row the columns of every box that contains it
(``permitted_columns``); rows in no box are left as the softmax wrote them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ROW_BLOCK, row_blocks
from .gradients import RowGrad

INBOX, STREAM, REFRESH = "in-box", "stream", "refresh"  # SAPass modes


def permitted_columns(inside: np.ndarray):
    """Which targets each in-box pixel may attend to under self-attention
    masking: the union of the boxes containing it. ``inside`` is (boxes,
    pixels). Yields one row group per distinct set of containing boxes: its
    pixel indices and its boolean column selector. Pixels in no box are in
    no group; masking leaves their rows alone."""
    if inside.shape[0] == 0:
        return
    keys = np.ascontiguousarray(inside.T).view(np.dtype((np.void, inside.shape[0])))
    _, first, group_of = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    for g, pixel in enumerate(first):
        boxes_in = inside[:, pixel]
        if boxes_in.any():
            yield np.nonzero(group_of.ravel() == g)[0], inside[boxes_in].any(axis=0)


def energy_targets(flats: np.ndarray) -> np.ndarray:
    """The (pixels, 2 instances) 0/1 matrix of the columns [m_i, 1 - m_i]."""
    targets = np.empty((flats.shape[1], 2 * flats.shape[0]))
    targets[:, 0::2] = flats.T
    targets[:, 1::2] = 1.0 - flats.T
    return targets


def block_energies(rows: np.ndarray, row_flats: np.ndarray, targets: np.ndarray,
                   sq: np.ndarray) -> np.ndarray:
    """One row block's partial of the box energies' sums: the in-box
    ``rows`` squared into ``sq`` (a buffer of their shape), times the 0/1
    target columns, weighted by each instance's mask on those rows
    (``row_flats``, instances x rows)."""
    np.square(rows, out=sq)
    return row_flats @ (sq @ targets)


def own_energies(sums: np.ndarray) -> np.ndarray:
    """Each instance's (fg, bg) pair of the summed block partials."""
    n_inst = sums.shape[0]
    own = np.arange(n_inst)
    return sums.reshape(n_inst, n_inst, 2)[own, own]


@dataclass(frozen=True)
class BlockRows:
    """The in-box rows of one row block of a self-attention map."""

    span: slice                 # their positions in the compact array
    local: np.ndarray           # their positions in the block
    flats: np.ndarray           # each instance's mask on them, (instances, rows)
    groups: "list[tuple[int, np.ndarray, np.ndarray]]"  # (group, positions in span, in block)


class RowLayout:
    """Where one self-attention layer's in-box rows lie under one set of
    control masks (``flats``, instances x pixels): the union of the in-box
    rows (the compact array's rows, in order), each ``permitted_columns``
    group's columns as a 0/1 vector, the in-box rows of each row block of
    the whole map (``BlockRows``), and each instance's mask on the rows of
    each row block of the compact array. Built once per mask set."""

    def __init__(self, flats: np.ndarray):
        n = flats.shape[1]
        inside = flats > 0.5
        self.flats = flats
        self.targets = energy_targets(flats)
        self.union = np.flatnonzero(inside.any(axis=0))
        self.step = max(1, ROW_BLOCK // n)  # rows per block, of either array
        group_of = np.full(n, -1)
        self.allowed = []
        for g, (rows, allowed) in enumerate(permitted_columns(inside)):
            group_of[rows] = g
            self.allowed.append(allowed.astype(np.float64))
        self.blocks = []
        for blk in row_blocks(n, n):
            j0, j1 = np.searchsorted(self.union, (blk.start, blk.stop))
            local = self.union[j0:j1] - blk.start
            of = group_of[self.union[j0:j1]]
            at = [(g, np.flatnonzero(of == g)) for g in range(len(self.allowed))]
            self.blocks.append(BlockRows(slice(j0, j1), local, flats[:, self.union[j0:j1]],
                                         [(g, pos, local[pos]) for g, pos in at if pos.size]))
        self.union_flats = [flats[:, self.union[blk]]
                            for blk in row_blocks(self.union.size, n)]


class SAPass:
    """One self-attention layer of one synthesis forward pass, as a row
    plan (see ``denoiser._attention``). Per mode:

    - ``INBOX``: the in-box rows alone, computed straight into the compact
      array, and the energies;
    - ``STREAM``: every row, into the lane's scratch; the block's in-box
      rows are copied into the compact array, ``A V`` of the whole block is
      written to the output, the energies are summed and the in-box rows'
      outputs overwritten with their masked readout;
    - ``REFRESH``: as ``STREAM``, but the block is written into the whole
      map, and its in-box rows are masked there.

    The masked readout of a group's rows, permitted columns C (the 0/1
    vector a), is one product with ``[V * a | a]``: ``A[r, C] V[C]`` and
    the row's permitted mass, then their quotient. A row with no permitted
    mass reads the mean of ``V[C]`` (and, masked, is uniform over C), and
    ``dead`` is set for the caller to warn. The energies (a ``gated``
    layer's) are summed from one partial per block, in block order.
    Temporaries go in the lane's scratch buffer. The compact rows and the
    map go in ``store``, the caller's (rows x n, or n x n) array, if given;
    the outputs are allocated in ``start``, by the calling thread."""

    def __init__(self, layout: RowLayout, mode: str, scratch, gated: bool,
                 store: "np.ndarray | None" = None):
        self.layout, self.mode, self.scratch, self.gated = layout, mode, scratch, gated
        self.store = store
        self.rows = layout.union if mode == INBOX else None  # the rows computed
        self.kept = None if mode == REFRESH else layout.union  # the rows the cache keeps
        self.energies: "np.ndarray | None" = None  # (instances, 2), a gated layer's
        self.out: "np.ndarray | None" = None       # the masked output, unless INBOX
        self.dead = False
        self.held = self.map = None                # the compact rows; the whole map

    def start(self, v: np.ndarray) -> None:
        """Take the pass's arrays for values ``v`` and, unless ``INBOX``,
        build the readout's ``[V * a | a]`` per group."""
        n, store = v.shape[0], self.store
        if self.mode == REFRESH:
            self.map = np.empty((n, n)) if store is None else store
        else:
            u = self.layout.union.size
            self.held = np.empty((u, n)) if store is None else store[:u]
        if self.mode == INBOX:
            return
        self.v = v
        self.out = np.empty_like(v)
        self.readers, self.fallbacks = [], []
        for a in self.layout.allowed:
            reader = np.empty((n, v.shape[1] + 1))
            np.multiply(v, a[:, None], out=reader[:, :-1])
            reader[:, -1] = a
            self.readers.append(reader)
            self.fallbacks.append(v[a > 0.5].mean(axis=0))

    def target(self, blk: slice, buf: np.ndarray) -> np.ndarray:
        if self.mode == INBOX:
            return self.held[blk]
        if self.mode == REFRESH:
            return self.map[blk]
        return buf[:blk.stop - blk.start]

    def _energies(self, rows: np.ndarray, row_flats: np.ndarray, buf: np.ndarray):
        if not self.gated:
            return None
        return block_energies(rows, row_flats, self.layout.targets, buf[:rows.shape[0]])

    def read(self, blk: slice, block: np.ndarray, buf: np.ndarray):
        """The block's energy partial and whether it has a dead row."""
        layout = self.layout
        if self.mode == INBOX:
            return self._energies(block, layout.union_flats[blk.start // layout.step], buf), False
        rows = layout.blocks[blk.start // layout.step]
        out = self.out[blk]
        if self.mode == STREAM:  # the block is in buf: copy its in-box rows out first
            held = self.held[rows.span]
            np.take(block, rows.local, axis=0, out=held, mode="clip")
            np.matmul(block, self.v, out=out)
            part = self._energies(held, rows.flats, buf)
        else:  # the block is in the map: square a copy of its in-box rows
            held = buf[:rows.local.size]
            np.take(block, rows.local, axis=0, out=held, mode="clip")
            part = self._energies(held, rows.flats, held)
            np.matmul(block, self.v, out=out)
        dead = False
        for g, at, local in rows.groups:
            sub = buf[:at.size]
            if self.mode == STREAM:
                np.take(held, at, axis=0, out=sub, mode="clip")
            else:
                np.take(block, local, axis=0, out=sub, mode="clip")
            num = sub @ self.readers[g]
            den = num[:, -1:]
            gone = den[:, 0] <= 0.0
            some_gone = gone.any()
            if some_gone:
                dead = True
                num[gone, :-1] = self.fallbacks[g]
                den[gone] = 1.0
            out[local] = num[:, :-1] / den
            if self.mode == REFRESH:
                sub *= layout.allowed[g]
                sub /= den
                if some_gone:
                    sub[gone] = layout.allowed[g] / layout.allowed[g].sum()
                block[local] = sub
        return part, dead

    def finish(self, results) -> np.ndarray:
        """Sum the energy partials in block order; return what the cache
        keeps of the map: the compact rows or, on a refresh, the masked
        map."""
        if self.gated:
            n_inst = self.layout.flats.shape[0]
            sums = np.zeros((n_inst, 2 * n_inst))
            for part, _ in results:
                sums += part
            self.energies = own_energies(sums)
        self.dead = any(dead for _, dead in results)
        kept = self.map if self.mode == REFRESH else self.held
        self.held = self.map = self.v = self.readers = None
        return kept


class SARowGrad(RowGrad):
    """The self-attention box-loss gradient: the sum over instances of each
    in-box row of ``attn`` times the instance's coefficient row, on the
    union of the in-box rows. ``attn`` is the map, or its compact rows on
    that union, read in place. Each row block is computed when ``backprop``
    reads it, into ``buf`` if given (one row block, which the next block
    overwrites), so no array of the rows' size is built."""

    def __init__(self, attn: np.ndarray, coefs, buf: "np.ndarray | None" = None):
        self.inside = np.array([rows for rows, _ in coefs], dtype=bool)
        super().__init__(np.flatnonzero(self.inside.any(axis=0)), None)
        self.attn, self.coefs, self.buf = attn, coefs, buf
        self.compact = attn.shape[0] == self.rows.size

    @property
    def width(self) -> int:
        return self.attn.shape[1]

    def block(self, blk: slice) -> np.ndarray:
        """Each row, in instance order, is 0 + its first instance's product,
        plus the product of each later instance whose box holds it."""
        raw = self.attn[blk] if self.compact else self.attn[self.rows[blk]]
        out = np.empty_like(raw) if self.buf is None else self.buf[:raw.shape[0]]
        seen = np.zeros(raw.shape[0], dtype=bool)
        for sel, (_, coef) in zip(self.inside[:, self.rows[blk]], self.coefs):
            first = (sel & ~seen)[:, None]
            np.multiply(raw, coef, out=out, where=first)
            np.add(out, 0.0, out=out, where=first)  # 0 + x: turns -0.0 into +0.0
            later = np.flatnonzero(sel & seen)
            if later.size:
                out[later] += raw[later] * coef
            seen |= sel
        return out
