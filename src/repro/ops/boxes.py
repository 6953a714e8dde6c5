"""Per-row spatial boxes: where a batched replay row can differ from golden.

Windowed batched replay (ULP_TOLERANT, see
:meth:`repro.graph.Executor.run_from_batched`) carries, next to each
packed dirty NHWC value, one inclusive ``(top, bottom, left, right)`` box
per row.  The invariant: **outside its box, a row is bit-identical to the
golden (batch-1 cached) value.**  A box may be empty (``bottom < top``):
the row is then golden everywhere.

A value can be held two ways: densely, as ``(rows, h, w, c)``, or
*box-packed*, as ``(positions, c)`` — every row's box positions in row
order, each box row-major (the layout :meth:`RowBoxes.positions`
enumerates).  :func:`splice` turns the second into the first by writing
the box positions over copies of the golden row.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from .base import Array


class RowBoxes:
    """One inclusive spatial box per row of a packed store.

    ``bounds`` is an int64 ``(4, rows)`` array of ``top``, ``bottom``
    (height axis), ``left`` and ``right`` (width axis).
    """

    __slots__ = ("bounds", "widths", "sizes", "starts", "total",
                 "_positions", "_golden_index")

    def __init__(self, bounds: Array) -> None:
        self.bounds = bounds
        extent = np.maximum(bounds[1::2] - bounds[::2] + 1, 0)
        self.widths = extent[1]
        self.sizes = extent[0] * self.widths
        ends = np.cumsum(self.sizes)
        self.starts = ends - self.sizes
        self.total = int(ends[-1]) if len(ends) else 0
        self._positions: Optional[Tuple[Array, Array, Array]] = None
        self._golden_index: Optional[Tuple[int, Array]] = None

    @property
    def top(self) -> Array:
        return self.bounds[0]

    @property
    def bottom(self) -> Array:
        return self.bounds[1]

    @property
    def left(self) -> Array:
        return self.bounds[2]

    @property
    def right(self) -> Array:
        return self.bounds[3]

    @classmethod
    def empty(cls, count: int) -> "RowBoxes":
        """``count`` empty boxes."""
        bounds = np.zeros((4, count), dtype=np.int64)
        bounds[1::2] = -1
        return cls(bounds)

    def __len__(self) -> int:
        return self.bounds.shape[1]

    def take(self, rows: Array) -> "RowBoxes":
        """The boxes of the rows indexed by ``rows``, in that order."""
        return RowBoxes(self.bounds[:, rows])

    def same_as(self, other: "RowBoxes") -> bool:
        return self is other or np.array_equal(self.bounds, other.bounds)

    def positions(self) -> Tuple[Array, Array, Array]:
        """``(row, i, j)`` of every box position, in box-packed order."""
        if self._positions is None:
            row = np.repeat(np.arange(len(self)), self.sizes)
            local = np.arange(self.total) - self.starts[row]
            span = self.widths[row]
            self._positions = (row, self.top[row] + local // span,
                               self.left[row] + local % span)
        return self._positions

    def golden_index(self, w: int) -> Array:
        """Flat ``h * w`` index of every position in a one-row value."""
        if self._golden_index is None or self._golden_index[0] != w:
            _, i, j = self.positions()
            self._golden_index = (w, i * w + j)
        return self._golden_index[1]

    def dense_index(self, h: int, w: int) -> Array:
        """Flat ``rows * h * w`` index of every position in a dense value."""
        row, i, j = self.positions()
        return (row * h + i) * w + j


def gather(dense: Array, boxes: RowBoxes) -> Array:
    """The box-packed ``(positions, c)`` values of a dense value."""
    count, h, w, c = dense.shape
    return dense.reshape(count * h * w, c)[boxes.dense_index(h, w)]


def splice(golden: Array, boxes: RowBoxes, values: Array) -> Array:
    """Dense rows: the golden row everywhere, box-packed ``values`` in
    the boxes."""
    _, h, w, c = golden.shape
    count = len(boxes)
    out = np.empty((count, h, w, c), dtype=np.result_type(golden, values))
    out[...] = golden
    if boxes.total:
        out.reshape(count * h * w, c)[boxes.dense_index(h, w)] = values
    return out


def diff_boxes(dense: Array, golden: Array) -> RowBoxes:
    """The tight box of the positions where each dense row's bits differ
    from the golden row (any channel)."""
    count, h, w, c = dense.shape
    bits = np.dtype(f"u{dense.dtype.itemsize}")
    changed = dense.view(bits) != golden.view(bits)
    # Reduce over long contiguous runs first: ``any`` over the short
    # channel axis alone is several times slower than the comparison.
    hit_rows = changed.reshape(count, h, w * c).any(axis=2)
    hit_cols = np.logical_or.reduce(changed, axis=1).any(axis=2)
    hit = hit_rows.any(axis=1)
    bounds = np.empty((4, count), dtype=np.int64)
    bounds[0] = hit_rows.argmax(axis=1)
    bounds[1] = h - 1 - hit_rows[:, ::-1].argmax(axis=1)
    bounds[2] = hit_cols.argmax(axis=1)
    bounds[3] = w - 1 - hit_cols[:, ::-1].argmax(axis=1)
    if not hit.all():
        bounds[1::2, ~hit] = -1
        bounds[::2, ~hit] = 0
    return RowBoxes(bounds)


def tighten(values: Array, golden_values: Array,
            boxes: RowBoxes) -> RowBoxes:
    """The tight boxes of a box-packed value: per row, the bounding box of
    the positions whose bits differ from the golden values at the same
    positions (``golden_values``, box-packed alike); empty for a row
    without such a position."""
    bits = np.dtype(f"u{values.dtype.itemsize}")
    changed = values.view(bits) != golden_values.view(bits)
    # Per-position ``any`` over the short channel axis as a product with
    # ones: several times faster than the reduction (the sums are exact).
    at = np.flatnonzero(changed.astype(np.float32)
                        @ np.ones(changed.shape[1], dtype=np.float32))
    bounds = RowBoxes.empty(len(boxes)).bounds
    if len(at):
        row, i, j = boxes.positions()
        hit_row = row[at]
        change = np.empty(len(at), dtype=bool)
        change[0] = True
        np.not_equal(hit_row[1:], hit_row[:-1], out=change[1:])
        firsts = np.flatnonzero(change)
        lasts = np.empty_like(firsts)
        lasts[:-1] = firsts[1:] - 1
        lasts[-1] = len(at) - 1
        owner = hit_row[firsts]
        hit_i, hit_j = i[at], j[at]
        # Box positions run row-major, so a row's first and last hits lie
        # on its top and bottom box rows.
        bounds[0, owner] = hit_i[firsts]
        bounds[1, owner] = hit_i[lasts]
        bounds[2, owner] = np.minimum.reduceat(hit_j, firsts)
        bounds[3, owner] = np.maximum.reduceat(hit_j, firsts)
    return RowBoxes(bounds)


def union(parts: Iterable[Tuple[Array, Optional[RowBoxes]]], count: int,
          h: int, w: int) -> RowBoxes:
    """Per-row union of boxes.  ``parts`` yields ``(slots, boxes)``: box
    ``k`` of ``boxes`` belongs to row ``slots[k]`` of the ``count`` rows
    (``boxes`` ``None`` means full extent).  Rows no part names get an
    empty box."""
    # Negated lower bounds make the union one elementwise maximum.
    acc = np.empty((4, count), dtype=np.int64)
    acc[0] = -h
    acc[2] = -w
    acc[1::2] = -1
    for slots, boxes in parts:
        if boxes is None:
            acc[:, slots] = ((0,), (h - 1,), (0,), (w - 1,))
            continue
        live = boxes.sizes > 0  # empty boxes must not widen the union
        signed = boxes.bounds[:, live] * np.array([[-1], [1], [-1], [1]])
        slots = slots[live]
        acc[:, slots] = np.maximum(acc[:, slots], signed)
    acc[::2] *= -1
    return RowBoxes(acc)
