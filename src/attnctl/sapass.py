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
whole masked map; rows in no box are never stored otherwise. A pass that
keeps only those rows divides only them: its blocks hold the undivided
exponentials of the logits, and one product with ``[V | 1]`` gives both
the raw readout and the row sums, so a row's division costs its d outputs
unless the row is kept, as FlashAttention (Dao et al. 2022) and the online
softmax (Milakov & Gimelshein 2018) rescale the output rather than the
map. The box-loss gradient on the kept rows (``SARowGrad``) is computed
from the compact rows a block at a time, as ``backprop`` reads it, on the
row-block workers too.

Masking permits each in-box row the columns of every box that contains it
(``permitted_columns``); rows in no box are left as the softmax wrote them.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .core import ROW_BLOCK, lane_blocks, row_blocks, softmax_rows_inplace
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
    control masks (``flats``, instances x pixels), built once per mask set:

    - the union of the in-box rows (the compact array's rows, in order),
      and each ``permitted_columns`` group's columns as a 0/1 vector;
    - the in-box rows of each row block of the whole map (``BlockRows``);
    - ``inbox_blocks``, the compact array's blocks (``core.lane_blocks``,
      half a lane buffer each, split evenly between the lanes), and each
      instance's mask on each of them;
    - the runs of consecutive compact rows that one set of boxes holds:
      their starts and stops, and the boxes, in instance order."""

    def __init__(self, flats: np.ndarray):
        n = flats.shape[1]
        inside = flats > 0.5
        self.flats = flats
        self.targets = energy_targets(flats)
        self.union = np.flatnonzero(inside.any(axis=0))
        self.step = max(1, ROW_BLOCK // n)  # rows per whole-map block
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
        # min(n, step) rows: a lane buffer of core.row_scratch(n, n)
        self.inbox_blocks = lane_blocks(self.union.size, min(n, self.step))
        self.inbox_flats = {blk.start: flats[:, self.union[blk]] for blk in self.inbox_blocks}
        held = inside[:, self.union]
        cuts = (np.flatnonzero((held[:, 1:] != held[:, :-1]).any(axis=0)) + 1).tolist()
        self.run_starts = [0, *cuts] if self.union.size else []
        self.run_stops = [*cuts, self.union.size] if self.union.size else []
        self.run_boxes = [np.flatnonzero(held[:, j]).tolist() for j in self.run_starts]


class SAPass:
    """One self-attention layer of one synthesis forward pass, as a row
    plan (see ``denoiser._attention``), on queries that carry the 1/sqrt(d)
    scale. Per mode:

    - ``INBOX``: the in-box rows alone, in ``RowLayout.inbox_blocks``,
      their softmax computed straight into the compact array, and the
      energies;
    - ``STREAM``: every row, into the lane's scratch, as the exponentials
      E = exp(logits - rowmax), which are not divided: one product
      ``E [V | 1]`` gives the block's raw readout and its row sums, and
      only what is kept is divided: the output rows (d wide) and the
      block's in-box rows, copied into the compact array (``read_rows``).
      The energies are summed from those rows and the in-box rows' outputs
      overwritten with their masked readout;
    - ``REFRESH``: the softmax of every row, written into the whole map,
      then as ``STREAM`` (from rows already divided), with the block's
      in-box rows masked there.

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
        self.blocks = layout.inbox_blocks if mode == INBOX else None
        self.kept = None if mode == REFRESH else layout.union  # the rows the cache keeps
        self.energies: "np.ndarray | None" = None  # (instances, 2), a gated layer's
        self.out: "np.ndarray | None" = None       # the masked output, unless INBOX
        self.dead = False
        self.held = self.map = None                # the compact rows; the whole map

    def start(self, v: np.ndarray) -> None:
        """Take the pass's arrays for values ``v`` and, unless ``INBOX``,
        the output (in ``STREAM``, the first d columns of ``E [V | 1]``,
        with ``[V | 1]`` built) and the readout's ``[V * a | a]`` per
        group."""
        n, store = v.shape[0], self.store
        if self.mode == REFRESH:
            self.map = np.empty((n, n)) if store is None else store
        else:
            u = self.layout.union.size
            self.held = np.empty((u, n)) if store is None else store[:u]
        if self.mode == INBOX:
            return
        self.v = v
        # E [V | 1], row by row: the output, divided in place, and the row sums
        self.summed = np.empty((n, v.shape[1] + 1))
        self.out = self.summed[:, :-1]
        if self.mode == STREAM:
            self.ones = np.empty_like(self.summed)
            self.ones[:, :-1] = v
            self.ones[:, -1] = 1.0
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
        """From the block's logits: the block's energy partial and whether
        it has a dead row."""
        if self.mode == STREAM:
            block -= block.max(axis=1, keepdims=True)
            np.exp(block, out=block)
            return self.read_rows(blk, block, buf)
        softmax_rows_inplace(block)
        if self.mode == INBOX:
            return self._energies(block, self.layout.inbox_flats[blk.start], buf), False
        # REFRESH: the block is in the map; square a copy of its in-box rows
        rows = self.layout.blocks[blk.start // self.layout.step]
        held = buf[:rows.local.size]
        np.take(block, rows.local, axis=0, out=held, mode="clip")
        part = self._energies(held, rows.flats, held)
        out = self.out[blk]
        np.matmul(block, self.v, out=out)
        return part, self._group_readout(rows, block, out, buf)

    def read_rows(self, blk: slice, block: np.ndarray, buf: np.ndarray):
        """``STREAM``'s read of row block ``blk`` of nonnegative weights,
        ``block``, left as they are: the exponentials of the logits, or a
        map's softmax rows (whose sums are 1 up to rounding). Each row is
        divided by its sum where it is kept."""
        rows = self.layout.blocks[blk.start // self.layout.step]
        summed = self.summed[blk]
        np.matmul(block, self.ones, out=summed)
        sums = summed[:, -1:]
        out = self.out[blk]
        np.divide(out, sums, out=out)
        held = self.held[rows.span]
        np.take(block, rows.local, axis=0, out=held, mode="clip")
        held /= sums[rows.local]
        return self._energies(held, rows.flats, buf), self._group_readout(rows, held, out, buf)

    def _group_readout(self, rows: BlockRows, block: np.ndarray, out: np.ndarray,
                       buf: np.ndarray) -> bool:
        """Overwrite the in-box rows' outputs with their masked readout,
        from ``block``: the compact rows (``STREAM``) or the map's block,
        whose in-box rows are masked in place (``REFRESH``). Whether a row
        is dead."""
        layout, refresh = self.layout, self.mode == REFRESH
        dead = False
        for g, at, local in rows.groups:
            sub = buf[:at.size]
            np.take(block, local if refresh else at, axis=0, out=sub, mode="clip")
            num = sub @ self.readers[g]
            den = num[:, -1:]
            gone = den[:, 0] <= 0.0
            some_gone = gone.any()
            if some_gone:
                dead = True
                num[gone, :-1] = self.fallbacks[g]
                den[gone] = 1.0
            out[local] = num[:, :-1] / den
            if refresh:
                sub *= layout.allowed[g]
                sub /= den
                if some_gone:
                    sub[gone] = layout.allowed[g] / layout.allowed[g].sum()
                block[local] = sub
        return dead

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
        self.held = self.map = self.v = self.readers = self.ones = None
        return kept


class SARowGrad(RowGrad):
    """The self-attention box-loss gradient: the sum over instances of each
    in-box row of ``attn`` times the instance's coefficient row
    (``coefs``, in instance order), on the union of the in-box rows of
    ``layout``. ``attn`` is the map, or its compact rows on that union,
    read in place. Each row block is computed when ``backprop`` reads it,
    into the buffer it gives, so no array of the rows' size is built;
    ``scratch`` (the lanes of ``core.row_scratch``) lets ``backprop`` run
    the blocks on the row-block workers."""

    def __init__(self, attn: np.ndarray, coefs, layout: RowLayout, scratch=None):
        super().__init__(layout.union, None)
        self.attn, self.coefs, self.layout, self.scratch = attn, coefs, layout, scratch
        self.compact = attn.shape[0] == self.rows.size

    @property
    def width(self) -> int:
        return self.attn.shape[1]

    def block(self, blk: slice, out=None, tmp=None) -> np.ndarray:
        """Each row is its first instance's product, plus the product of
        each later instance whose box holds it (formed in ``tmp``, if
        given), then 0 + that, which turns -0.0 into +0.0: the bits of
        summing the products onto +0.0 in instance order. One multiply per
        run of rows that one set of boxes holds."""
        raw = self.attn[blk] if self.compact else self.attn[self.rows[blk]]
        out = np.empty_like(raw) if out is None else out
        layout = self.layout
        j = bisect.bisect_right(layout.run_starts, blk.start) - 1
        while j < len(layout.run_starts) and layout.run_starts[j] < blk.stop:
            run = slice(max(layout.run_starts[j], blk.start) - blk.start,
                        min(layout.run_stops[j], blk.stop) - blk.start)
            first, *later = layout.run_boxes[j]
            np.multiply(raw[run], self.coefs[first], out=out[run])
            for i in later:
                out[run] += np.multiply(raw[run], self.coefs[i],
                                        out=None if tmp is None else tmp[run])
            j += 1
        np.add(out, 0.0, out=out)
        return out
