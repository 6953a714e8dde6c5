"""Stateful property test of batched replay's per-node row store.

``Executor.run_from_batched`` keeps one store per node holding dirty rows
(``repro.graph.executor._Rows``): a row bitset, the rows dense,
box-packed or both, and their boxes, tight or not.  This suite drives the
store through every operation the replay applies to it — install entry
rows, store evaluated rows dense or box-packed, drop clean rows, merge
entry rows with evaluated ones, tighten, release, splice, and hand a
consumer the rows it needs, dense or at a region's positions — and after
every step checks each store against a reference model that keeps every
node's ``(B, h, w, c)`` rows dense (golden where the store holds no row).

Invariants checked after every step:

* the held rows (dense, or spliced from the box-packed ones) equal the
  reference's rows at the store's bits, and a store holding both layouts
  holds the same values in both;
* outside its box each held row is bit-identical to golden;
* tight boxes are the bounding boxes of the positions whose bits differ
  from golden.
"""

from typing import Dict

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.graph.executor import _Rows, _mask_of
from repro.ops.boxes import RowBoxes, diff_boxes, gather, splice, union

MAX_BATCH = 6


def _bitset(data, batch: int, within: int, label: str) -> int:
    """A non-empty subset of the rows ``within``."""
    rows = np.flatnonzero(_mask_of(within, batch))
    picked = data.draw(st.lists(st.sampled_from(list(rows)), min_size=1,
                                unique=True), label=label)
    return sum(1 << int(row) for row in picked)


def _golden(data) -> np.ndarray:
    h, w, c = (data.draw(st.integers(1, 5), label="h"),
               data.draw(st.integers(1, 5), label="w"),
               data.draw(st.integers(1, 3), label="c"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                          label="seed"))
    golden = rng.normal(size=(1, h, w, c))
    golden[rng.random(golden.shape) < 0.2] = 0.0
    return golden


def _changed(data, golden: np.ndarray, count: int) -> np.ndarray:
    """``count`` rows that differ from ``golden`` in a few positions (bit
    flips, sign flips at zero, large values) or nowhere."""
    _, h, w, c = golden.shape
    rows = np.repeat(golden, count, axis=0)
    for row in rows:
        for _ in range(data.draw(st.integers(0, 3), label="changes")):
            i, j, k = (data.draw(st.integers(0, h - 1)),
                       data.draw(st.integers(0, w - 1)),
                       data.draw(st.integers(0, c - 1)))
            how = data.draw(st.sampled_from(("flip", "signed_zero", "huge")))
            if how == "flip":
                bits = row[i, j, k:k + 1].view(np.uint64)
                bits ^= np.uint64(1 << data.draw(st.integers(0, 61)))
            elif how == "signed_zero":
                row[i, j, k] = -0.0 if row[i, j, k] == 0.0 else 0.0
            else:
                row[i, j, k] = 1e4
    return rows


def _region(data, rows: np.ndarray, golden: np.ndarray) -> RowBoxes:
    """Boxes holding every change of ``rows``: their tight boxes, widened
    at random."""
    count, h, w, _ = rows.shape
    exact = diff_boxes(rows, golden)
    grow = np.array([[data.draw(st.integers(0, 2), label="grow")
                      for _ in range(count)] for _ in range(4)])
    wider = RowBoxes(np.stack([np.maximum(exact.top - grow[0], 0),
                               np.minimum(exact.bottom + grow[1], h - 1),
                               np.maximum(exact.left - grow[2], 0),
                               np.minimum(exact.right + grow[3], w - 1)]))
    every = np.arange(count)
    return union([(every, exact), (every, wider)], count, h, w)


def _held(store: _Rows) -> np.ndarray:
    """The store's rows, dense, without touching the store."""
    if store.dense is not None:
        return store.dense
    return splice(store.golden, store.boxes, store.boxed)


def _nonempty_bounds(boxes: RowBoxes) -> np.ndarray:
    return boxes.bounds[:, boxes.sizes > 0]


class RowStoreMachine(RuleBasedStateMachine):
    """Stores keyed by node number, against dense reference rows."""

    def __init__(self) -> None:
        super().__init__()
        self.stores: Dict[int, _Rows] = {}
        self.reference: Dict[int, np.ndarray] = {}
        self.nodes = 0

    @initialize(batch=st.integers(1, MAX_BATCH))
    def choose_batch(self, batch: int) -> None:
        self.batch = batch
        self.every = (1 << batch) - 1

    # -- helpers -------------------------------------------------------------

    def _evaluated(self, data, golden: np.ndarray, bits: int) -> _Rows:
        """Evaluated rows ``bits`` in a drawn layout."""
        rows = _changed(data, golden, bits.bit_count())
        layout = data.draw(st.sampled_from(
            ("dense", "boxed", "tight", "no boxes")), label="layout")
        name = f"n{self.nodes}"
        if layout == "no boxes":
            return _Rows(name, bits, golden, self.batch, dense=rows)
        if layout == "tight":
            return _Rows(name, bits, golden, self.batch, dense=rows,
                         boxes=diff_boxes(rows, golden), tight=True)
        region = _region(data, rows, golden)
        if layout == "dense":
            return _Rows(name, bits, golden, self.batch, dense=rows,
                         boxes=region)
        return _Rows(name, bits, golden, self.batch,
                     boxed=gather(rows, region), boxes=region)

    def _add(self, store: _Rows) -> None:
        reference = np.repeat(store.golden, self.batch, axis=0)
        reference[_mask_of(store.bits, self.batch)] = _held(store)
        self.stores[self.nodes] = store
        self.reference[self.nodes] = reference
        self.nodes += 1

    def _pick(self, data) -> int:
        return data.draw(st.sampled_from(sorted(self.stores)), label="node")

    # -- rules ---------------------------------------------------------------

    @rule(data=st.data())
    def install_entry(self, data) -> None:
        golden = _golden(data)
        bits = _bitset(data, self.batch, self.every, "entry rows")
        rows = _changed(data, golden, bits.bit_count())
        boxes = (diff_boxes(rows, golden)
                 if data.draw(st.booleans(), label="boxed entry") else None)
        self._add(_Rows(f"n{self.nodes}", bits, golden, self.batch,
                        dense=rows, boxes=boxes, tight=True))

    @rule(data=st.data())
    def store_evaluated(self, data) -> None:
        golden = _golden(data)
        bits = _bitset(data, self.batch, self.every, "evaluated rows")
        self._add(self._evaluated(data, golden, bits))

    @precondition(lambda self: self.stores)
    @rule(data=st.data())
    def drop_clean_rows(self, data) -> None:
        node = self._pick(data)
        store = self.stores[node]
        keep = _bitset(data, self.batch, store.bits, "surviving rows")
        self.stores[node] = store.only(keep)
        # Dropped rows were declared clean: they are golden from now on.
        self.reference[node][_mask_of(store.bits & ~keep, self.batch)] = \
            store.golden

    @precondition(lambda self: any(store.bits != self.every
                                   for store in self.stores.values()))
    @rule(data=st.data())
    def merge_entry_with_evaluated(self, data) -> None:
        node = data.draw(st.sampled_from(sorted(
            node for node, store in self.stores.items()
            if store.bits != self.every)), label="entry node")
        entry = self.stores[node]
        bits = _bitset(data, self.batch, self.every & ~entry.bits,
                       "re-evaluated rows")
        evaluated = self._evaluated(data, entry.golden, bits)
        self.reference[node][_mask_of(bits, self.batch)] = _held(evaluated)
        self.stores[node] = entry.merged(evaluated)

    @precondition(lambda self: self.stores)
    @rule(data=st.data())
    def tighten(self, data) -> None:
        node = self._pick(data)
        store = self.stores[node]
        need = _bitset(data, self.batch, self.every, "need")
        boxes = store.tight_boxes(need)
        if store.boxes is None:
            assert boxes is None
            return
        assert store.tight
        held = _mask_of(store.bits & need, self.batch)
        rows = self.reference[node][held]
        expected = diff_boxes(rows, store.golden)
        assert np.array_equal(boxes.sizes, expected.sizes)
        assert np.array_equal(_nonempty_bounds(boxes),
                              _nonempty_bounds(expected))

    @precondition(lambda self: self.stores)
    @rule(data=st.data())
    def release(self, data) -> None:
        node = self._pick(data)
        del self.stores[node]
        del self.reference[node]

    @precondition(lambda self: self.stores)
    @rule(data=st.data())
    def splice_dense(self, data) -> None:
        node = self._pick(data)
        store = self.stores[node]
        dense = store.rows()
        expected = self.reference[node][_mask_of(store.bits, self.batch)]
        assert dense.tobytes() == expected.tobytes()

    @precondition(lambda self: self.stores)
    @rule(data=st.data())
    def assemble(self, data) -> None:
        node = self._pick(data)
        store = self.stores[node]
        need = _bitset(data, self.batch, self.every, "need")
        rows = store.assemble(need, need.bit_count())
        expected = self.reference[node][_mask_of(need, self.batch)]
        assert rows.tobytes() == expected.tobytes()

    @precondition(lambda self: self.stores)
    @rule(data=st.data())
    def region_values(self, data) -> None:
        node = self._pick(data)
        store = self.stores[node]
        need = _bitset(data, self.batch, self.every, "need")
        rows = self.reference[node][_mask_of(need, self.batch)]
        if (store.bits == need and store.boxes is not None
                and data.draw(st.booleans(), label="the store's boxes")):
            region = store.boxes
        else:
            region = _region(data, rows, store.golden)
        values = store.region_values(need, region)
        assert values.tobytes() == gather(rows, region).tobytes()

    # -- invariants ----------------------------------------------------------

    @invariant()
    def stores_match_the_reference(self) -> None:
        for node, store in self.stores.items():
            assert store.bits and not store.bits & ~self.every
            mask = _mask_of(store.bits, self.batch)
            reference = self.reference[node]
            assert (reference[~mask].tobytes()
                    == np.repeat(store.golden, int((~mask).sum()),
                                 axis=0).tobytes())
            assert store.dense is not None or store.boxed is not None
            held = _held(store)
            assert held.tobytes() == reference[mask].tobytes()
            if store.boxes is None:
                continue
            assert len(store.boxes) == store.bits.bit_count()
            if store.dense is not None and store.boxed is not None:
                assert (gather(store.dense, store.boxes).tobytes()
                        == store.boxed.tobytes())
            # Outside its box each row is golden.
            rebuilt = splice(store.golden, store.boxes,
                             gather(held, store.boxes))
            assert rebuilt.tobytes() == held.tobytes()
            if store.tight:
                expected = diff_boxes(held, store.golden)
                assert np.array_equal(store.boxes.sizes, expected.sizes)
                assert np.array_equal(_nonempty_bounds(store.boxes),
                                      _nonempty_bounds(expected))


RowStoreMachine.TestCase.settings = settings(max_examples=200,
                                             stateful_step_count=20,
                                             deadline=None)
TestRowStore = RowStoreMachine.TestCase
