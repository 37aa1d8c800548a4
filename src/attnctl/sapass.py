"""The self-attention pass of a synthesis step.

A synthesis forward pass computes a self-attention map one row block at a
time, on the row-block workers (``core.map_row_blocks``), and reads from
each block, while it is hot, all that the step needs of it
(``SAPass``, the row plan of ``denoiser._attention``):

- the box energies' partial sums, over the block's in-box rows;
- the readout: the raw ``A V`` of rows in no box, and the masked readout
  of in-box rows, from their permitted columns alone.

What it keeps of the map is one compact (rows x n) array of the in-box
rows; rows in no box are never stored, and no pass writes a whole map. A
pass that keeps only those rows divides only them: its blocks hold the
undivided exponentials of the logits, and one product with ``[V | 1]``
gives both the raw readout and the row sums, so a row's division costs its
d outputs unless the row is kept, as FlashAttention (Dao et al. 2022) and
the online softmax (Milakov & Gimelshein 2018) rescale the output rather
than the map. A mask refresh step's pass widens it to ``[V | R | 1]``
(``sketch_basis``): each row's r extra outputs are its masked row times R,
the sketch that K-means clusters (``refine``). The box-loss gradient
(``SARowGrad``) is a ``gradients.RowGrad`` on an ``INBOX`` pass's compact
rows, computed from them a block at a time as ``backprop`` reads it, on
the row-block workers' lanes too.

Each quantity has one kernel here, which the passes and the record API in
``synthesis`` run, so that they agree bit for bit:

- a kept row is divided by its own sum, as ``core.softmax_rows_inplace``
  divides it;
- the box energies are summed in block order from one partial per row
  block of the whole map, over its in-box rows (``block_energies``);
- masking permits each in-box row the columns of every box that contains
  it; the rows permitted the same columns form one group
  (``permitted_columns``).
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ROW_BLOCK, row_blocks, softmax_rows_inplace
from .gradients import RowGrad

INBOX, STREAM = "in-box", "stream"  # SAPass modes
SKETCH_COLUMNS = 32     # r: the width of a mask refresh's row sketches
SKETCH_SEED = 0         # R's own seed, not the synthesis seed


@functools.lru_cache(maxsize=8)
def sketch_basis(n: int) -> np.ndarray:
    """R, the n x r matrix that sketches a map's rows, read-only: standard
    normal entries over sqrt(r), so a sketch keeps a row's squared norm in
    expectation."""
    basis = np.random.default_rng(SKETCH_SEED).standard_normal((n, SKETCH_COLUMNS))
    basis /= math.sqrt(SKETCH_COLUMNS)
    basis.setflags(write=False)
    return basis


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


def block_energies(rows: np.ndarray, owned, targets: np.ndarray,
                   buf: np.ndarray) -> np.ndarray:
    """One row block's partial of the box energies' sums, an (instances, 2)
    array: each instance's in-box rows of ``rows`` (``owned``, their
    positions) copied into ``buf``, squared and summed down the rows, and
    that sum times the instance's 0/1 target columns [m_i, 1 - m_i]
    (``targets[i]``), since (a m)^2 = a^2 m for m in {0, 1}. An instance's
    partial reads its own rows alone, in products of their shape, so it has
    the same bits whatever other instances the layout holds."""
    part = np.zeros((len(owned), 2))
    for i, at in enumerate(owned):
        if at.size:
            sq = buf[:at.size]
            np.take(rows, at, axis=0, out=sq, mode="clip")
            np.square(sq, out=sq)
            part[i] = sq.sum(axis=0) @ targets[i]
    return part


@dataclass(frozen=True)
class BlockRows:
    """The in-box rows of one row block of a self-attention map."""

    span: slice                 # their positions in the compact array
    local: np.ndarray           # their positions in the block
    owned: "list[np.ndarray]"   # each instance's rows: positions in span
    owned_local: "list[np.ndarray]"  # and in the block
    groups: "list[tuple[int, np.ndarray, np.ndarray]]"  # (group, positions in span, in block)


class RowLayout:
    """Where one self-attention layer's in-box rows lie under one set of
    control masks (``flats``, instances x pixels), built once per mask set:

    - the union of the in-box rows (the compact array's rows, in order),
      and each ``permitted_columns`` group's columns as a 0/1 vector;
    - the in-box rows of each row block of the whole map (``BlockRows``),
      and ``spans``, the compact array's blocks: the spans of the map
      blocks that hold in-box rows;
    - the runs of consecutive compact rows that one set of boxes holds:
      their starts and stops, and the boxes, in instance order."""

    def __init__(self, flats: np.ndarray):
        n = flats.shape[1]
        inside = flats > 0.5
        self.flats = flats
        self.targets = np.stack([flats, 1.0 - flats], axis=2)  # [m_i, 1 - m_i] per instance
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
            owned = [np.flatnonzero(box[self.union[j0:j1]]) for box in inside]
            self.blocks.append(BlockRows(slice(j0, j1), local, owned, [local[o] for o in owned],
                                         [(g, pos, local[pos]) for g, pos in at if pos.size]))
        self.spans = tuple(rows.span for rows in self.blocks if rows.local.size)
        held = inside[:, self.union]
        cuts = (np.flatnonzero((held[:, 1:] != held[:, :-1]).any(axis=0)) + 1).tolist()
        self.run_starts = [0, *cuts] if self.union.size else []
        self.run_stops = [*cuts, self.union.size] if self.union.size else []
        self.run_boxes = [np.flatnonzero(held[:, j]).tolist() for j in self.run_starts]


class SAPass:
    """One self-attention layer of one synthesis forward pass, as a row
    plan (see ``denoiser._attention``), on queries that carry the 1/sqrt(d)
    scale. Per mode:

    - ``INBOX``: the in-box rows alone, one task per map block that holds
      some (``RowLayout.spans``), their softmax computed straight into the
      compact array, and the energies;
    - ``STREAM``: every row, into the lane's scratch, as the exponentials
      E = exp(logits - rowmax), which are not divided: one product
      ``E [V | 1]`` gives the block's raw readout and its row sums, which
      divide the output rows (d wide). The block's in-box rows are copied
      into the compact array and divided by their sums there
      (``read_rows``), the energies summed from them, and their outputs
      overwritten with their masked readout: for a group's permitted
      columns C (the 0/1 vector a), the rows times a, times ``[V | 1]``,
      give ``A[r, C] V[C]`` and the row's permitted mass, then their
      quotient. A row with no permitted mass reads the mean of ``V[C]``.

    Given ``basis`` R, a ``STREAM`` pass reads ``[V | R]`` wherever it
    reads V, and ``sketch`` holds each row's masked row times R.

    A masked row with no permitted mass sets ``dead``, for the caller to
    warn. The energies (a ``gated`` layer's) are summed from one partial
    per block, in block order. Temporaries go in the lane's scratch buffer.
    The compact rows go in the first rows of ``store``, the caller's array
    of n columns, if given; the outputs are allocated in ``start``, by the
    calling thread."""

    def __init__(self, layout: RowLayout, mode: str, scratch, gated: bool,
                 store: "np.ndarray | None" = None, basis: "np.ndarray | None" = None):
        self.layout, self.mode, self.scratch, self.gated = layout, mode, scratch, gated
        self.store, self.basis = store, basis
        self.rows = layout.union if mode == INBOX else None  # the rows computed
        self.blocks = layout.spans if mode == INBOX else None
        self.kept = layout.union                   # the rows the cache keeps
        self.energies: "np.ndarray | None" = None  # (instances, 2), a gated layer's
        self.out: "np.ndarray | None" = None       # the masked output, unless INBOX
        self.sketch: "np.ndarray | None" = None    # (n, r), the masked rows times R
        self.dead = False
        self.held: "np.ndarray | None" = None      # the compact rows

    def start(self, v: np.ndarray) -> None:
        """Take the pass's arrays for values ``v`` and, unless ``INBOX``,
        the output: in ``STREAM``, the first d columns of ``E [V | 1]``
        (``E [V | R | 1]`` given a basis), with ``[V | 1]`` built."""
        n, d, store = v.shape[0], v.shape[1], self.store
        u = self.layout.union.size
        self.held = np.empty((u, n)) if store is None else store[:u]
        if self.mode == INBOX:
            return
        # E [V | R | 1], row by row: the outputs, divided in place, and the row sums
        width = d if self.basis is None else d + self.basis.shape[1]
        self.summed = np.empty((n, width + 1))
        self.out = self.summed[:, :d]
        self.ones = np.empty_like(self.summed)
        self.ones[:, :d] = v
        if self.basis is not None:
            self.sketch = self.summed[:, d:-1]
            self.ones[:, d:-1] = self.basis
        self.ones[:, -1] = 1.0

    def target(self, blk: slice, buf: np.ndarray) -> np.ndarray:
        if self.mode == INBOX:
            return self.held[blk]
        return buf[:blk.stop - blk.start]

    def _block_rows(self, blk: slice) -> BlockRows:
        """The in-box rows of the map block that task ``blk`` computes."""
        first = blk.start if self.rows is None else self.rows[blk.start]
        return self.layout.blocks[first // self.layout.step]

    def _energies(self, rows: np.ndarray, owned, buf: np.ndarray):
        if not self.gated:
            return None
        return block_energies(rows, owned, self.layout.targets, buf)

    def read(self, blk: slice, block: np.ndarray, buf: np.ndarray):
        """From the block's logits: the block's energy partial and whether
        it has a dead row."""
        if self.mode == STREAM:
            block -= block.max(axis=1, keepdims=True)
            np.exp(block, out=block)
            return self.read_rows(blk, block, buf)
        softmax_rows_inplace(block)  # INBOX: the block is in the compact rows
        return self._energies(block, self._block_rows(blk).owned, buf), ()

    def read_rows(self, blk: slice, block: np.ndarray, buf: np.ndarray):
        """``STREAM``'s read of row block ``blk`` of nonnegative weights,
        ``block``, left as they are: the exponentials of the logits, or a
        map's softmax rows (whose sums are 1 up to rounding). Each row is
        divided by its sum where it is kept."""
        rows = self._block_rows(blk)
        summed = self.summed[blk]
        np.matmul(block, self.ones, out=summed)
        out = summed[:, :-1]
        np.divide(out, summed[:, -1:], out=out)
        held = self.held[rows.span]
        np.take(block, rows.local, axis=0, out=held, mode="clip")
        held /= held.sum(axis=1, keepdims=True)
        return (self._energies(held, rows.owned, buf),
                self._group_readout(blk.start, rows, held, out, buf))

    def _group_readout(self, start: int, rows: BlockRows, held: np.ndarray,
                       out: np.ndarray, buf: np.ndarray) -> list:
        """Overwrite the in-box rows' outputs with their masked readout,
        from their compact rows ``held`` (block ``start``'s), a group's rows
        masked in ``buf``. The dead rows, as (group, map rows) pairs, for
        ``finish`` to write."""
        dead = []
        for g, at, local in rows.groups:
            sub = buf[:at.size]
            np.take(held, at, axis=0, out=sub, mode="clip")
            sub *= self.layout.allowed[g]
            num = sub @ self.ones
            gone = num[:, -1] <= 0.0
            if gone.any():
                dead.append((g, start + local[gone]))
                num[gone, -1] = 1.0
            out[local] = num[:, :-1] / num[:, -1:]
        return dead

    def finish(self, results) -> np.ndarray:
        """Sum the energy partials in block order, write each dead row's
        output, the mean of ``V[C]``; return what the cache keeps of the
        map: the compact rows."""
        if self.gated:  # the partials, in block order
            self.energies = sum((part for part, _ in results),
                                np.zeros((self.layout.flats.shape[0], 2)))
        for _, dead in results:
            for g, at in dead:
                self.dead = True
                permitted = self.ones[self.layout.allowed[g] > 0.5, :-1]
                self.summed[at, :-1] = permitted.mean(axis=0)
        kept = self.held
        self.held = self.ones = None
        return kept


class SARowGrad(RowGrad):
    """The self-attention box-loss gradient: the sum over instances of each
    in-box row of the map times the instance's coefficient row (``coefs``,
    in instance order), on the union of the in-box rows of ``layout``.
    ``held`` is the map's compact rows on that union, as an ``INBOX`` pass
    keeps them, read in place. Each row block is computed when ``backprop``
    reads it, into the lane buffer it gives, so no array of the rows' size
    is built."""

    def __init__(self, held: np.ndarray, coefs, layout: RowLayout, scratch):
        self.rows, self.scratch = layout.union, scratch
        self.held, self.coefs, self.layout = held, coefs, layout

    def block(self, blk: slice, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """Each row is its first instance's product, plus the product of
        each later instance whose box holds it (formed in ``tmp``). One
        multiply per run of rows that one set of boxes holds."""
        raw = self.held[blk]
        layout = self.layout
        j = bisect.bisect_right(layout.run_starts, blk.start) - 1
        while j < len(layout.run_starts) and layout.run_starts[j] < blk.stop:
            run = slice(max(layout.run_starts[j], blk.start) - blk.start,
                        min(layout.run_stops[j], blk.stop) - blk.start)
            first, *later = layout.run_boxes[j]
            np.multiply(raw[run], self.coefs[first], out=out[run])
            for i in later:
                out[run] += np.multiply(raw[run], self.coefs[i], out=tmp[run])
            j += 1
        return out
