"""Graph executor: forward evaluation, hooks, dtype policies, backprop.

The executor is the single place where all of the reproduction's cross-cutting
concerns meet:

* the **fault injector** registers an output hook that flips bits in exactly
  one operator's output during one inference;
* the **profiler** registers an observation hook to collect activation ranges
  for Ranger's restriction bounds;
* the **fixed-point datatype policy** quantizes every operator output to the
  configured Qm.n format, reproducing the paper's 32-bit / 16-bit fixed-point
  evaluation configurations;
* the **trainer** runs forward with caching and then backpropagates through
  the recorded tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple, Union)

import numpy as np

from ..ops.base import Array, Operator, Placeholder, Variable
from ..ops.boxes import RowBoxes, diff_boxes, gather, splice, tighten, union
from ..ops.conv import ConvGolden, reachable_boxes
from .equivalence import (DEFAULT_MAX_ULPS, EquivalenceMode,
                          max_row_ulp_distance)
from .graph import POLICY_EXEMPT_CATEGORIES, Graph, GraphError, Node

#: An output hook receives (node, output) and returns a possibly-modified
#: output array.  Hooks run in registration order after the operator executes.
OutputHook = Callable[[Node, Array], Array]

#: An observer receives (node, output) and returns nothing.  Observers run
#: after all output hooks.
Observer = Callable[[Node, Array], None]

#: Smallest per-row element count of an NHWC value for which windowed
#: batched replay carries boxes (see :mod:`repro.ops.boxes`).  Below it a
#: whole-row numpy call costs less than the box bookkeeping (index
#: arrays, gathers, per-row reductions); those values are evaluated and
#: checked whole, as without boxes.
BOX_MIN_ELEMENTS = 2048

#: Smallest per-row element count for which the ULP_TOLERANT row check
#: (``Executor._tolerant_rows``) runs its peak screen and ULP distances.
#: Masked faults die at the big early activations, where those tiers earn
#: their dispatch cost; below the floor exact equality terminates masked
#: rows instead (a conservative subset: a row within ULP tolerance but not
#: bit-equal just stays dirty, carrying its exact value).  Correctness is
#: unaffected either way — snapping a row back to golden only ever replaces
#: a value proved (bit- or ULP-) equal to golden.
DIVERGENCE_CHECK_MIN_ELEMENTS = 8192


class DTypePolicy:
    """Numeric policy applied to every operator output.

    The default policy is plain float64 (no transformation).  The fixed-point
    policies in :mod:`repro.quantization` subclass this to round every value
    to a Qm.n grid with saturation, which is how the paper's "32-bit
    fixed-point datatype" configuration is modelled.

    Contract, which batched replay relies on:

    * ``apply`` must be **idempotent** bit for bit —
      ``apply(node, apply(node, v))`` has the same bytes as
      ``apply(node, v)``, NaNs, signed zeros and saturated values
      included.  Positions served from the cached (already
      policy-processed) golden value come out unchanged.
    * ``apply`` must be **elementwise**: each output element depends on
      the input element at the same index alone, and not on the array's
      shape, so applying it to any subset of the elements — flattened to
      ``(positions, channels)`` — gives the same bits as applying it to
      the whole array and taking the subset.  Windowed replay applies the
      policy to the box-packed values of the positions a fault reached
      (see :mod:`repro.ops.boxes`), never to the golden rest.
    * ``+0.0`` and NaN are **fixed points** of ``apply``, so a grid-closed
      output (:attr:`~repro.ops.base.Operator.grid_closed`) is on the grid
      whenever its inputs are.  The executor then leaves the policy off
      the nodes of :meth:`~repro.graph.graph.Graph.grid_closed_nodes`,
      as long as ``skip_categories`` is within
      :data:`~repro.graph.graph.POLICY_EXEMPT_CATEGORIES` and no output
      hook or observer is registered.
    """

    name = "float64"

    #: Node categories whose outputs ``apply`` returns unchanged, whatever
    #: they hold (so they need not be on the grid).
    skip_categories: frozenset = frozenset()

    def apply(self, node: Node, value: Array) -> Array:
        return value


#: Unsigned-integer dtype of each itemsize, for bit-identity views.
_UINT_OF_SIZE = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}

#: Largest array (bytes) :func:`bit_identical` compares as two ``tobytes``
#: copies; past it, comparing unsigned-integer views is faster (measured
#: crossover about 128 KiB of float64).
_MEMCMP_MAX_BYTES = 1 << 17


def bit_identical(a: Array, b: Array) -> bool:
    """True when two arrays hold exactly the same bits.

    Compares raw bytes (small arrays) or unsigned-integer views (large
    ones), deliberately stricter than ``==``: NaNs with equal payloads
    compare equal (deterministic operators on identical bits give
    identical bits downstream), while ``-0.0`` and ``0.0`` compare unequal
    (they are different bit patterns).  Both directions are safe for
    change propagation.
    """
    if a is b:
        return True
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.nbytes <= _MEMCMP_MAX_BYTES:
        return a.tobytes() == b.tobytes()
    bits = _UINT_OF_SIZE[a.dtype.itemsize]
    return bool((a.view(bits) == b.view(bits)).all())


def _bits_of(mask: np.ndarray) -> int:
    """A boolean row mask as a bitset: bit ``i`` is row ``i``."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(),
                          "little")


def _mask_of(bits: int, count: int) -> np.ndarray:
    """The boolean ``(count,)`` row mask of a bitset."""
    raw = np.frombuffer(bits.to_bytes((count + 7) // 8, "little"),
                        dtype=np.uint8)
    return np.unpackbits(raw, count=count, bitorder="little").view(bool)


def _pick(rows: int, picked: int, batch: int) -> int:
    """The rows of the bitset ``rows`` whose rank among its set bits is
    set in ``picked`` (``picked`` indexes a packed array of those rows)."""
    if picked == (1 << rows.bit_count()) - 1:
        return rows
    if not picked:
        return 0
    mask = np.zeros(batch, dtype=bool)
    ranks = _mask_of(picked, rows.bit_count())
    mask[np.flatnonzero(_mask_of(rows, batch))[ranks]] = True
    return _bits_of(mask)


def _golden_at(golden: Array, region: RowBoxes) -> Array:
    """A one-row NHWC value at ``region``'s positions, box-packed."""
    return golden.reshape(-1, golden.shape[-1])[
        region.golden_index(golden.shape[2])]


@dataclass(eq=False, slots=True)
class _Rows:
    """The dirty rows of one node in a batched replay.

    ``bits`` names the rows that differ from ``golden`` (the batch-1
    cached value, ``None`` when the cache lacks it); every other row is
    implicitly golden, so masked faults cost nothing downstream.  The
    dirty rows, in ascending row order, are held dense (``dense``,
    ``(rows, ...)``), box-packed over ``boxes`` (``boxed``, see
    :mod:`repro.ops.boxes`) or both; dense rows are spliced from the
    box-packed ones when a consumer needs them.  ``boxes`` is ``None``
    for rows that carry none.  ``tight`` boxes are the bounding boxes of
    the positions whose bits differ from golden: boxes from a bit
    comparison are; region boxes (pointwise steps, conv windows,
    pooling) may be wider, and are tightened where a conv needs them.
    """

    name: str
    bits: int
    golden: Optional[Array]
    batch: int
    dense: Optional[Array] = None
    boxed: Optional[Array] = None
    boxes: Optional[RowBoxes] = None
    tight: bool = False

    def rows(self) -> Array:
        """The dirty rows, dense."""
        if self.dense is None:
            self.dense = splice(self.golden, self.boxes, self.boxed)
        return self.dense

    def assemble(self, need: int, count: int) -> Array:
        """The rows of a consumer evaluating the ``count`` rows ``need``:
        dirty rows from the store, the rest golden.  When the consumer
        needs exactly the dirty rows — the common case — the dense rows
        are returned as-is, copy-free."""
        dense = self.rows()
        if self.bits == need:
            return dense
        if self.golden is None:
            raise KeyError(self.name)
        # Fill an empty buffer row class by row class: every row is
        # written exactly once.  ``need`` may exclude dirty rows (an entry
        # node's own rows are installed, not evaluated), so the dirty
        # scatter takes the bits ∩ need subset of the store.
        need_mask = _mask_of(need, self.batch)
        mask = _mask_of(self.bits, self.batch)
        assembled = np.empty((count,) + self.golden.shape[1:],
                             dtype=np.result_type(self.golden, dense))
        position_of = np.cumsum(need_mask) - 1
        take = mask & need_mask
        assembled[position_of[need_mask & ~mask]] = self.golden
        if self.bits & need:
            assembled[position_of[take]] = (
                dense if self.bits & need == self.bits else dense[take[mask]])
        return assembled

    def slots(self, need: int) -> Tuple[Array, Array]:
        """For the rows of ``need`` held dirty here: their ranks among
        ``need`` and their indices in the store."""
        if self.bits == need:
            held = np.arange(need.bit_count())
            return held, held
        need_rows = np.flatnonzero(_mask_of(need, self.batch))
        mask = _mask_of(self.bits, self.batch)
        held = mask[need_rows]
        return (np.flatnonzero(held),
                (np.cumsum(mask) - 1)[need_rows[held]])

    def boxes_among(self, need: int) -> Optional[RowBoxes]:
        """The boxes of the dirty rows among ``need``, for a consumer
        evaluating exactly those rows (``None``: no box)."""
        if self.boxes is None or self.bits == need:
            return self.boxes
        return self.boxes.take(self.slots(need)[1])

    def tight_boxes(self, need: int) -> Optional[RowBoxes]:
        """:meth:`boxes_among`, tightened first: a conv reads its windows
        off them, so they must be the boxes its own input comparison
        would find."""
        if self.boxes is not None and not self.tight:
            values = (self.boxed if self.boxed is not None
                      else gather(self.dense, self.boxes))
            # The conv reads the rows dense: splice them before the
            # box-packed layout is dropped.
            self.rows()
            self.boxed = None
            self.boxes = tighten(values, _golden_at(self.golden, self.boxes),
                                 self.boxes)
            self.tight = True
        return self.boxes_among(need)

    def region_values(self, need: int, region: RowBoxes) -> Array:
        """The rows ``need`` at ``region``'s positions, box-packed: the
        dirty ones from the store, the rest golden."""
        if self.bits == need:
            if self.boxed is not None and self.boxes.same_as(region):
                return self.boxed
            if self.dense is not None:
                return gather(self.dense, region)
        values = _golden_at(self.golden, region)
        slots, held = self.slots(need)
        slot_of = np.full(len(region), -1)
        slot_of[slots] = held
        row, i, j = region.positions()
        at = np.flatnonzero(slot_of[row] >= 0)
        slot, i, j = slot_of[row[at]], i[at], j[at]
        _, h, w, c = self.golden.shape
        if self.dense is not None:
            values[at] = self.dense.reshape(-1, c)[(slot * h + i) * w + j]
            return values
        boxes = self.boxes
        top, left = boxes.top[slot], boxes.left[slot]
        inside = ((i >= top) & (i <= boxes.bottom[slot])
                  & (j >= left) & (j <= boxes.right[slot]))
        values[at[inside]] = self.boxed[
            (boxes.starts[slot] + (i - top) * boxes.widths[slot]
             + (j - left))[inside]]
        return values

    def only(self, bits: int) -> "_Rows":
        """The store of the held rows ``bits`` alone (clean rows drop
        out; the others keep their boxes)."""
        keep = _mask_of(bits, self.batch)[_mask_of(self.bits, self.batch)]
        boxes = boxed = dense = None
        if self.boxes is not None:
            boxes = self.boxes.take(np.flatnonzero(keep))
        if self.boxed is not None:
            boxed = self.boxed[keep[self.boxes.positions()[0]]]
        if self.dense is not None:
            dense = self.dense[keep]
        return _Rows(self.name, bits, self.golden, self.batch, dense, boxed,
                     boxes, self.tight)

    def merged(self, other: "_Rows") -> "_Rows":
        """These rows merged with ``other``'s (disjoint) rows, dense, in
        ascending row order."""
        final = self.bits | other.bits
        position_of = np.cumsum(_mask_of(final, self.batch)) - 1
        mine, theirs = self.rows(), other.rows()
        combined = np.empty((final.bit_count(),) + mine.shape[1:],
                            dtype=np.result_type(mine, theirs))
        mine_at = position_of[_mask_of(self.bits, self.batch)]
        combined[mine_at] = mine
        theirs_at = position_of[_mask_of(other.bits, self.batch)]
        combined[theirs_at] = theirs
        boxes = None
        if self.boxes is not None and other.boxes is not None:
            # Disjoint row sets: the union places each box at its row.
            boxes = union([(mine_at, self.boxes), (theirs_at, other.boxes)],
                          final.bit_count(), *mine.shape[1:3])
        return _Rows(self.name, final, self.golden, self.batch,
                     dense=combined, boxes=boxes,
                     tight=self.tight and other.tight)


@dataclass
class ExecutionResult:
    """Outputs of one forward pass plus the cached per-node values.

    A partial re-execution (:meth:`Executor.run_from`) returns only the
    requested outputs in ``values`` and fills ``recomputed`` with the names
    of the nodes that were actually re-evaluated; everything else came
    from the supplied cache.
    """

    outputs: Dict[str, Array]
    values: Dict[str, Array]
    recomputed: Optional[Set[str]] = None

    def output(self, name: Optional[str] = None) -> Array:
        if name is not None:
            return self.outputs[name]
        if len(self.outputs) != 1:
            raise KeyError(
                f"graph has {len(self.outputs)} outputs; specify which one")
        return next(iter(self.outputs.values()))


@dataclass
class BatchedExecutionResult:
    """Outputs of one batched partial re-execution (B trials in one pass).

    ``outputs`` maps each requested node to a stacked ``(B, ...)`` array —
    row ``i`` is trial ``i``'s output.  ``recomputed`` is the set of nodes
    whose operators were re-evaluated at least once; ``rows_evaluated``
    counts *node-row* evaluations (the batched analogue of the incremental
    path's per-node count: re-evaluating one node for 3 of B rows adds 3).
    ``max_ulp_deviation`` is the largest ULP distance observed between a
    row that change propagation declared *clean* and its batch-1 golden
    value — the tolerance consumed by the rows snapped back to golden.
    Rows that stay dirty are never measured: their BLAS batch-shape noise
    against their own batch-1 replays is not in it (an output row 64 ULPs
    from its one-row replay has been seen next to a reading of 0.0), so
    it does not bound the deviation of the returned outputs.
    ``conv_positions_evaluated`` / ``conv_positions_total`` count the
    output positions (summed over rows) of every re-evaluated ``Conv2D``
    that were computed, and that a full conv would have computed; they
    differ only where windowed conv replay served positions from golden.
    ``pointwise_positions_evaluated`` / ``pointwise_positions_total`` do
    the same for every re-evaluated pointwise operator with an NHWC
    output: the spatial positions inside the rows' boxes, and all of
    them.
    """

    outputs: Dict[str, Array]
    recomputed: Set[str] = field(default_factory=set)
    rows_evaluated: int = 0
    max_ulp_deviation: float = 0.0
    conv_positions_evaluated: int = 0
    conv_positions_total: int = 0
    pointwise_positions_evaluated: int = 0
    pointwise_positions_total: int = 0

    def output(self, name: Optional[str] = None) -> Array:
        if name is not None:
            return self.outputs[name]
        if len(self.outputs) != 1:
            raise KeyError(
                f"batched result has {len(self.outputs)} outputs; "
                f"specify which one")
        return next(iter(self.outputs.values()))


class Executor:
    """Evaluates a :class:`~repro.graph.graph.Graph`.

    Parameters
    ----------
    graph:
        The graph to execute.
    dtype_policy:
        Numeric policy applied to every operator output (see
        :class:`DTypePolicy`).
    """

    def __init__(self, graph: Graph,
                 dtype_policy: Optional[DTypePolicy] = None) -> None:
        self.graph = graph
        self.dtype_policy = dtype_policy or DTypePolicy()
        self._output_hooks: List[OutputHook] = []
        self._observers: List[Observer] = []

    # -- hook management -----------------------------------------------------

    def add_output_hook(self, hook: OutputHook) -> None:
        self._output_hooks.append(hook)

    def remove_output_hook(self, hook: OutputHook) -> None:
        self._output_hooks.remove(hook)

    def add_observer(self, observer: Observer) -> None:
        self._observers.append(observer)

    def remove_observer(self, observer: Observer) -> None:
        self._observers.remove(observer)

    def clear_hooks(self) -> None:
        self._output_hooks.clear()
        self._observers.clear()

    # -- execution -------------------------------------------------------------

    def _skips_closed(self) -> bool:
        """Whether this executor may leave the dtype policy off grid-closed
        nodes: its policy processes every node outside
        :data:`~repro.graph.graph.POLICY_EXEMPT_CATEGORIES`, and no hook
        or observer (which may move a value off the grid, or must see
        every policy call) is registered."""
        return (not self._output_hooks and not self._observers
                and self.dtype_policy.skip_categories
                <= POLICY_EXEMPT_CATEGORIES)

    def _evaluate(self, node: Node, out: Array) -> Array:
        """Apply the dtype policy, output hooks and observers to one output."""
        out = self.dtype_policy.apply(node, out)
        for hook in self._output_hooks:
            out = hook(node, out)
        for observer in self._observers:
            observer(node, out)
        return out

    def run(self, feed: Optional[Mapping[str, Array]] = None,
            outputs: Optional[Sequence[str]] = None,
            prune: bool = True) -> ExecutionResult:
        """Run a forward pass.

        Parameters
        ----------
        feed:
            Mapping from placeholder node names to input arrays.
        outputs:
            Node names to report; defaults to the graph's marked outputs.
        prune:
            When True (default), only the ancestor set of the requested
            outputs is evaluated — nodes the outputs do not depend on are
            skipped entirely (they are absent from ``result.values`` and
            hooks/observers never see them).  Pass False to force the old
            whole-graph evaluation.

        Grid-closed nodes keep their operator's output without the dtype
        policy (see :class:`DTypePolicy`): it would return the same bytes.
        """
        feed = dict(feed or {})
        requested = list(outputs) if outputs is not None else list(self.graph.outputs)
        if not requested:
            raise GraphError("graph has no outputs and none were requested")
        missing = [name for name in requested if name not in self.graph]
        if missing:
            raise GraphError(f"requested outputs not in graph: {missing}")
        needed = self.graph.ancestors(requested) if prune else None
        closed = (self.graph.grid_closed_nodes() if self._skips_closed()
                  else frozenset())
        values: Dict[str, Array] = {}

        for node in self.graph:
            if needed is not None and node.name not in needed:
                continue
            if isinstance(node.op, Placeholder):
                key = node.name
                if key not in feed:
                    raise GraphError(
                        f"no value fed for placeholder '{node.name}'")
                out = np.asarray(feed[key], dtype=np.float64)
            else:
                args = [values[i] for i in node.inputs]
                out = node.op.forward(*args)
            values[node.name] = (out if node.name in closed
                                 else self._evaluate(node, out))

        return ExecutionResult(
            outputs={name: values[name] for name in requested},
            values=values,
        )

    def run_from(self, cached_values: Mapping[str, Array],
                 dirty: Union[str, Iterable[str]] = (),
                 outputs: Optional[Sequence[str]] = None,
                 feed: Optional[Mapping[str, Array]] = None,
                 dirty_values: Optional[Mapping[str, Array]] = None,
                 ) -> ExecutionResult:
        """Bit-exact partial re-execution of one trial from a golden cache.

        The one-row ``EXACT`` call of :meth:`run_from_batched`.  It resumes
        a forward pass from ``cached_values`` (the ``values`` of a prior
        batch-1 :meth:`run` over the same graph) and re-evaluates only the
        seeds' downstream cone that the requested outputs depend on: a
        fault at node *k* can only perturb descendants of *k*.  A
        re-evaluated node whose output is bit-identical to its cached value
        (a fault squashed by a ReLU, a max-pool or a Ranger clip) dirties
        nothing downstream, so the result is bit-identical to a full run
        while often touching only a handful of nodes.

        Seeds come two ways: ``dirty`` names nodes whose operators are
        re-evaluated (``feed`` supplies a dirty placeholder's value), and
        ``dirty_values`` maps nodes to replacement outputs that are
        installed as-is, without the operator, the dtype policy or the
        hooks — this is how the fault injector swaps in a corrupted copy of
        a cached activation.  A replacement bit-identical to its cached
        value changes nothing.  Batch-invariant nodes (variables,
        constants) cannot be seeds.

        Returns an :class:`ExecutionResult` whose ``outputs`` (and
        ``values``) hold the requested outputs and whose ``recomputed``
        names the re-evaluated nodes.
        """
        result = self.run_from_batched(
            cached_values, dirty=dirty, stacked_dirty_values=dirty_values,
            outputs=outputs, feed=feed, equivalence=EquivalenceMode.EXACT)
        return ExecutionResult(outputs=result.outputs, values=result.outputs,
                               recomputed=result.recomputed)

    # -- the replay core -------------------------------------------------------

    @staticmethod
    def _changed_rows(out: Array, cached: Optional[Array]) -> int:
        """The ``EXACT`` row check: a bitset over the rows of ``out``, bit
        ``j`` set when row ``j`` is not bit-identical to the cache
        (``-0.0`` is not ``0.0``; NaNs with equal payloads match).
        Without a comparable cached value every row has changed."""
        count = out.shape[0]
        if count == 1:
            return int(cached is None or not bit_identical(out, cached))
        if (cached is None or cached.dtype != out.dtype
                or cached.shape[1:] != out.shape[1:]):
            return (1 << count) - 1
        bits = _UINT_OF_SIZE[out.dtype.itemsize]
        same = out.view(bits) == cached.view(bits)
        return _bits_of(~same.reshape(count, -1).all(axis=1))

    @staticmethod
    def _tolerant_rows(out: Array, cached: Optional[Array],
                       region: Optional[RowBoxes], boxed: bool,
                       threshold: float) -> Tuple[np.ndarray, float]:
        """The ``ULP_TOLERANT`` row check, for boxed and whole rows alike.

        ``out`` holds the evaluated rows, box-packed over ``region`` when
        ``boxed``, else dense; outside its box (a whole row is one
        position of all its elements) each row is bit-identical to
        ``cached``, the batch-1 golden value, so the box's verdict is
        the whole row's.  Returns ``(dirty, deviation)``: a row mask and
        the largest ULP distance a clean row consumed.  Without a
        comparable golden value every row is dirty.  Below
        :data:`DIVERGENCE_CHECK_MIN_ELEMENTS` elements per row a row is
        clean when it equals golden (``==``; a golden NaN equals
        nothing).  Above it, a row equal to golden is clean; one whose
        peak deviation clears the screen is dirty (the ULP size at
        magnitude m is at most eps*m for normal floats, so peak >
        threshold * eps * (max|golden| + peak) proves the distance
        exceeds the threshold); any other is settled by its ULP
        distance, which treats equal-payload NaNs as distance 0.  A NaN
        or an infinity in golden disables the screen: every row with a
        non-empty box is settled by its ULP distance.
        """
        count = len(region) if boxed else out.shape[0]
        if (cached is None or cached.dtype != out.dtype
                or (region is None and cached.shape[1:] != out.shape[1:])):
            return np.ones(count, dtype=bool), 0.0
        if region is None:
            values = out.reshape(count, -1)
            golden_values = cached.reshape(1, -1)
        else:
            values = out if boxed else gather(out, region)
            golden_values = _golden_at(cached, region)

        def per_row(ufunc: np.ufunc, elementwise: Array, empty) -> Array:
            """``ufunc`` over each row's elements (``empty`` for an empty
            box), one segment per row of the flat box-packed elements (a
            reduction over the short channel axis first costs more)."""
            if region is None:
                return ufunc.reduce(elementwise, axis=1)
            nonempty = np.flatnonzero(region.sizes)
            result = np.full(count, empty)
            if len(nonempty):
                result[nonempty] = ufunc.reduceat(
                    elementwise.ravel(),
                    region.starts[nonempty] * values.shape[1])
            return result

        if cached.size < DIVERGENCE_CHECK_MIN_ELEMENTS:
            if np.isnan(cached).any():
                return np.ones(count, dtype=bool), 0.0
            return ~per_row(np.logical_and, values == golden_values,
                            True), 0.0
        if region is None:
            golden_values = np.broadcast_to(golden_values, values.shape)
            first, sizes = np.arange(count), np.ones(count, dtype=np.int64)
        else:
            first, sizes = region.starts, region.sizes
        max_cached = float(np.abs(cached).max())
        peak = per_row(np.maximum, np.abs(values - golden_values), 0.0)
        eps = np.finfo(np.float64).eps
        # NaN peaks, and a NaN or infinite golden maximum, compare False
        # here: those rows fall through to ULP distances.
        dirty = peak > threshold * eps * (max_cached + peak)
        unequal = peak != 0 if np.isfinite(max_cached) else sizes > 0
        deviation = 0.0
        for k in np.flatnonzero(~dirty & unequal):
            start = first[k]
            end = start + sizes[k]
            dist = float(max_row_ulp_distance(values[None, start:end],
                                              golden_values[None, start:end])[0])
            if dist <= threshold:
                deviation = max(deviation, dist)
            else:
                dirty[k] = True
        return dirty, deviation

    def _entry_on_grid(self, node: Node, rows: Array, cached: Optional[Array],
                       boxes: Optional[RowBoxes]) -> bool:
        """Whether installed entry rows are dtype-policy outputs already.

        The golden value is one, so only the elements that differ from it
        are checked: those inside the rows' ``boxes``, or found by a
        comparison of bit views (the rows are not copied).
        """
        values = rows
        if boxes is not None:
            values = gather(rows, boxes)
        elif (cached is not None and cached.dtype == rows.dtype
              and rows.dtype.kind == "f"
              and cached.shape[1:] == rows.shape[1:]):
            bits = _UINT_OF_SIZE[rows.dtype.itemsize]
            values = rows[rows.view(bits) != cached.view(bits)]
        return bit_identical(self.dtype_policy.apply(node, values), values)

    def _broadcast_cached(self, value: Array, name: str, count: int) -> Array:
        """A cached value as the ``count`` rows of a replay see it.

        Batch-invariant nodes (variables, constants — ``batch_axis is
        None``) are shared by every row and passed through untouched;
        batch-carrying cached values (shape ``(1, ...)``) are broadcast to
        ``count`` rows as a zero-copy view; one row is the cached value
        itself.
        """
        if count == 1 or self.graph.node(name).op.batch_axis is None:
            return value
        value = np.asarray(value)
        return np.broadcast_to(value, (count,) + value.shape[1:])

    def run_from_batched(self, cached_values: Mapping[str, Array],
                         dirty: Union[str, Iterable[str]] = (),
                         stacked_dirty_values: Optional[Mapping[str, Array]] = None,
                         outputs: Optional[Sequence[str]] = None,
                         feed: Optional[Mapping[str, Array]] = None,
                         equivalence: Union[EquivalenceMode, str, None] = None,
                         max_ulps: float = DEFAULT_MAX_ULPS,
                         dirty_row_masks: Optional[Mapping[str, np.ndarray]] = None,
                         ) -> BatchedExecutionResult:
        """Replay B independent trials in one partial re-execution.

        The replay core; :meth:`run_from` is its one-row ``EXACT`` call.
        It resumes from a **batch-1** golden activation cache and carries
        a ``(B, ...)``-stacked dirty frontier through the fault cone, so B
        trials that share an input pay for one pass (and one BLAS call per
        re-evaluated node) instead of B.  Cached upstream values are
        broadcast against the stacked frontier (batch-invariant weights
        pass through untouched — see
        :attr:`~repro.ops.base.Operator.batch_axis`).  For B > 1 every
        operator in the cone is audited against the batch-transparency
        contract (:attr:`~repro.ops.base.Operator.batch_transparent`): a
        batch-coupled operator (training-mode BatchNorm or Dropout, an
        axis-0 concat) raises :class:`GraphError` instead of silently
        entangling trials.  The structure of the walk — cone, order, last
        readers, horizons — comes from :meth:`Graph.cone_schedule`,
        memoized per seed set.

        **Cross-site batches.**  Rows need not share a fault site: with
        ``dirty_row_masks``, each stacked dirty value carries a boolean
        row-membership mask and only the masked rows *enter* the replay at
        that node — the replay then walks the **union cone** of every entry
        node, and per-row dirty tracking confines each row to its own
        site's cone (a row is only ever evaluated at nodes its own dirt
        reached; rows outside a node's cone are implicitly golden there).
        Entry nodes may lie inside each other's cones (nested cones): rows
        entering at a node take their injected value as-is, while rows
        that another entry dirtied upstream are re-evaluated *through* the
        node like any other cone member.

        Change propagation is tracked **per row** (as Python-int
        bitsets): a re-evaluated node keeps the rows that still differ
        from the golden cache, clean rows snap back to golden and drop out
        of downstream evaluations, and the pass terminates early once no
        dirty row remains.

        Equivalence: under ``EXACT`` a row is clean only when
        bit-identical to the cache, and an entry row bit-identical to its
        cached value is installed but dirties nothing; a one-row replay is
        then bit-identical to a full run.  BLAS kernels are not bit-stable
        across batch shapes, though, so B > 1 rows may differ from their
        batch-1 replays in the last few ULPs, which is why campaigns
        refuse ``EXACT`` for ``batch_trials > 1``.  Under the default
        ``ULP_TOLERANT`` a row counts as clean within ``max_ulps`` of the
        cache, and the result reports the largest deviation a clean row
        consumed (``max_ulp_deviation``; dirty rows are not measured).

        **Windowed conv.**  Under ``ULP_TOLERANT`` (and with no output
        hooks registered), a re-evaluated ``Conv2D`` whose golden input and
        output are both cached receives them, and computes each row only
        at the output positions its changed inputs can reach; the rest of
        its output is the golden value, which is exact there (see
        :func:`repro.ops.conv.conv_window`).  ``EXACT`` mode always runs
        the full conv: a row-subset GEMM is not bit-identical to the full
        one on every BLAS.

        **Carried boxes.**  Windowed replay with no hooks or observers
        also keeps, next to each packed dirty NHWC value of at least
        :data:`BOX_MIN_ELEMENTS` elements per row, one box per row
        outside which the row is bit-identical to golden
        (:mod:`repro.ops.boxes`).  Boxes come from a bit comparison of
        entry rows and of outputs evaluated whole, and from conv windows;
        pooling maps them through its window.  A pointwise operator
        (:attr:`~repro.ops.base.Operator.pointwise`) evaluates only the
        union of its inputs' boxes, box-packed, and so do the dtype policy
        and the row check.  A conv reads its windows off its input's
        boxes, tightened to the changed bits first, instead of comparing
        the input against golden.  Each node's dirty rows live in one
        store, dense, box-packed or both; dense rows are spliced from the
        box-packed ones only for consumers that need them.  The outputs,
        ``rows_evaluated`` and conv positions are those of whole-row
        evaluation, byte for byte.

        Every ``ULP_TOLERANT`` row verdict, boxed or whole-row, comes from
        one check that reads a row only inside its box (a whole row is
        one box); see :data:`DIVERGENCE_CHECK_MIN_ELEMENTS`.

        **Grid-closed steps.**  With no hooks or observers, a node of
        :meth:`Graph.grid_closed_nodes` keeps its operator's output
        without the dtype policy, which would return the same bytes (see
        :class:`DTypePolicy`).  That holds because every value it reads is
        a policy output: the golden cache (which must come from this
        executor), re-evaluated rows, and entry rows, which are checked
        where they differ from golden when a grid-closed node first reads
        them.  The grid-closed readers of an entry that is off the grid
        apply the policy.

        Parameters
        ----------
        cached_values:
            Batch-1 node-name → activation mapping from a prior fault-free
            run of the same input.
        dirty:
            Node name(s) whose operators must be re-evaluated for every row.
        stacked_dirty_values:
            Node name → replacement outputs, installed without
            re-evaluation.  Without a row mask the value has ``(B, ...)``
            rows (row ``i`` is trial ``i``'s corrupted activation, every
            row enters here); with an entry in ``dirty_row_masks`` it is
            *packed* — one row per set mask bit, in ascending row order.
        outputs:
            Node names to report; defaults to the graph's marked outputs.
        feed:
            Only needed when a placeholder itself is marked dirty; the fed
            value may have 1 or B rows.
        equivalence:
            Row-masking mode; defaults to ``ULP_TOLERANT``.
        max_ulps:
            Row-masking tolerance under ``ULP_TOLERANT``.
        dirty_row_masks:
            Optional node name → boolean ``(B,)`` mask naming the rows that
            enter the replay at that node (cross-site batches).  Masked
            nodes' stacked values are packed to the mask's set bits; nodes
            absent from the mapping keep the homogeneous all-rows contract.
        """
        mode = EquivalenceMode.coerce(equivalence, EquivalenceMode.ULP_TOLERANT)
        exact = mode is EquivalenceMode.EXACT
        threshold = 0.0 if exact else float(max_ulps)
        # Output hooks would see (and re-apply themselves to) the spliced
        # golden positions, so a hooked replay keeps the full conv.
        windowed = not exact and not self._output_hooks
        graph = self.graph
        feed = feed or {}
        requested = (tuple(outputs) if outputs is not None
                     else tuple(graph.outputs))
        if not requested:
            raise GraphError("graph has no outputs and none were requested")
        missing = [name for name in requested if name not in graph]
        if missing:
            raise GraphError(f"requested outputs not in graph: {missing}")
        overrides = {name: np.asarray(value)
                     for name, value in (stacked_dirty_values or {}).items()}
        row_masks: Dict[str, np.ndarray] = {}
        for name, mask in (dirty_row_masks or {}).items():
            if name not in overrides:
                raise GraphError(
                    f"dirty_row_masks names '{name}' but no stacked dirty "
                    f"value was supplied for it")
            mask = np.asarray(mask, dtype=bool)
            if mask.ndim != 1:
                raise GraphError(
                    f"row mask for '{name}' must be one-dimensional, got "
                    f"shape {mask.shape}")
            row_masks[name] = mask
        reeval_seeds = {dirty} if isinstance(dirty, str) else set(dirty)
        reeval_seeds -= overrides.keys()
        seeds = frozenset(reeval_seeds.union(overrides))
        for name in seeds:
            if name not in graph:
                raise GraphError(f"unknown dirty node '{name}'")
        batch_sizes = {value.shape[0] for name, value in overrides.items()
                       if name not in row_masks}
        batch_sizes |= {mask.shape[0] for mask in row_masks.values()}
        if len(batch_sizes) > 1:
            raise GraphError(
                f"stacked dirty values disagree on the batch size: "
                f"{sorted(batch_sizes)}")
        batch = batch_sizes.pop() if batch_sizes else 1
        every = (1 << batch) - 1
        schedule = graph.cone_schedule(seeds, requested)
        if batch > 1:
            coupled = sorted(name for name in schedule.members.union(overrides)
                             if not graph.node(name).op.batch_transparent)
            if coupled:
                ops = {name: type(graph.node(name).op).__name__
                       for name in coupled}
                raise GraphError(
                    f"run_from_batched(): batch-coupled operators in the "
                    f"replay cone cannot stack independent trials: {ops} "
                    f"(training-mode BatchNorm/Dropout and axis-0 concats "
                    f"violate the batch-transparency contract)")

        # Entry frontier: per node, the rows entering the replay there
        # (installed, never re-evaluated; homogeneous overrides enter on
        # every row).  The dirty part of them is stored up front: no
        # node before an entry reads it.
        entries: Dict[str, int] = {}
        # One store per node holding dirty rows.  A store is dropped once
        # its last reader in the cone has run (requested outputs
        # excepted): holding every store to the end grows the heap by the
        # whole cone's activations per call.
        stores: Dict[str, _Rows] = {}
        # Windowed replay carries a box per dirty row of every NHWC store
        # (see repro.ops.boxes): outside it the row is bit-identical to
        # golden, so pointwise steps, quantization and the row checks
        # touch only the box.  Hooks and observers see whole arrays and
        # keep whole-row evaluation.
        boxing = windowed and not self._observers
        # Grid-closed steps skip the dtype policy when every input is on
        # its grid.  Entry rows are installed as-is, so each is checked
        # when a grid-closed step first reads it (``unchecked``); one that
        # is off the grid (a float32 bit flip, say) joins ``off_grid``,
        # and its grid-closed readers apply the policy.
        skipping = self._skips_closed()
        unchecked: Dict[str, Tuple[Array, Optional[Array],
                                   Optional[RowBoxes]]] = {}
        off_grid: Set[str] = set()
        for name, rows in overrides.items():
            mask = row_masks.get(name)
            bits = every if mask is None else _bits_of(mask)
            if mask is not None and rows.shape[0] != bits.bit_count():
                raise GraphError(
                    f"stacked value for '{name}' has {rows.shape[0]} rows "
                    f"but its row mask selects {bits.bit_count()}")
            if not bits:
                continue  # no row enters here; nothing to install
            if graph.node(name).op.batch_axis is None:
                # Batch-invariant nodes (variables, constants) are shared
                # by every row and always served from the cache.
                raise GraphError(
                    f"run_from_batched(): cannot install stacked dirty "
                    f"values at batch-invariant node '{name}' "
                    f"({type(graph.node(name).op).__name__})")
            cached = cached_values.get(name)
            if cached is not None:
                cached = np.asarray(cached)
                if cached.shape[1:] != rows.shape[1:]:
                    raise GraphError(
                        f"run_from_batched(): stacked value for '{name}' "
                        f"has row shape {rows.shape[1:]}, cache has "
                        f"{cached.shape[1:]}")
            live = bits
            boxes = None
            if exact:
                changed = self._changed_rows(rows, cached)
                live = _pick(bits, changed, batch)
                if live and live != bits:
                    rows = rows[_mask_of(changed, rows.shape[0])]
            elif (boxing and cached is not None and rows.ndim == 4
                  and rows.dtype == cached.dtype
                  and cached.size >= BOX_MIN_ELEMENTS):
                boxes = diff_boxes(rows, cached)
            entries[name] = bits
            if live:
                if skipping:
                    unchecked[name] = (rows, cached, boxes)
                stores[name] = _Rows(name, live, cached, batch, dense=rows,
                                     boxes=boxes, tight=True)
        # The walk must not end while a seed or a dirty entry (another
        # entry's dirt may flow *through* it) is pending.  Nodes outside
        # the requested outputs' ancestors cannot influence any output.
        pending = len(schedule.members.intersection(
            reeval_seeds.union(stores)))
        recomputed: Set[str] = set()
        rows_evaluated = 0
        conv_evaluated = conv_total = 0
        pointwise_evaluated = pointwise_total = 0
        max_deviation = 0.0
        last_dirty_use = -1

        def dense_args(node: Node, need: int, count: int) -> List[Array]:
            """Every input's rows for the ``count`` rows ``need`` a node
            evaluates: dirty rows from the stores, clean rows from the
            (broadcast) golden cache."""
            try:
                return [stores[inp].assemble(need, count) if inp in stores
                        else self._broadcast_cached(cached_values[inp], inp,
                                                    count)
                        for inp in node.inputs]
            except KeyError as exc:
                raise GraphError(
                    f"no cached value for input {exc} of node "
                    f"'{node.name}'") from None

        # The step handlers return ``(out, region, boxed)``: the evaluated
        # rows, golden outside ``region`` when set, box-packed over it
        # when ``boxed``.

        def fed(name: str, need: int):
            """A dirty placeholder: its fed rows."""
            if name not in feed:
                raise GraphError(
                    f"placeholder '{name}' is dirty but no value was fed")
            value = np.asarray(feed[name], dtype=np.float64)
            if value.shape[0] not in (1, batch):
                raise GraphError(
                    f"fed value for dirty placeholder '{name}' has "
                    f"{value.shape[0]} rows; expected 1 or {batch}")
            value = np.broadcast_to(value, (batch,) + value.shape[1:])
            return (np.array(value if need == every
                             else value[_mask_of(need, batch)]), None, False)

        def boxed_pointwise(node: Node, need: int, count: int, h: int,
                            w: int):
            """A pointwise operator over the union of its inputs' boxes,
            box-packed; on whole rows when an input does not fit the box
            layout."""
            dirty: List[_Rows] = []
            for inp in node.inputs:
                value = cached_values.get(inp)
                if value is None:
                    return whole_rows(node, need, count, True, False)
                if graph.node(inp).op.batch_axis is None:
                    if np.ndim(value) > 1:  # must broadcast over channels
                        return whole_rows(node, need, count, True, False)
                    continue
                if np.ndim(value) != 4 or np.shape(value)[1:3] != (h, w):
                    return whole_rows(node, need, count, True, False)
                rows = stores.get(inp)
                if rows is not None and rows.bits & need:
                    dirty.append(rows)
            if (len(dirty) == 1 and dirty[0].bits == need
                    and dirty[0].boxes is not None):
                region = dirty[0].boxes
            else:
                region = union([(rows.slots(need)[0], rows.boxes_among(need))
                                for rows in dirty], count, h, w)
            args = []
            for inp in node.inputs:
                rows = stores.get(inp)
                if graph.node(inp).op.batch_axis is None:
                    args.append(cached_values[inp])
                elif rows is None or not rows.bits & need:
                    args.append(_golden_at(np.asarray(cached_values[inp]),
                                           region))
                else:
                    args.append(rows.region_values(need, region))
            return node.op.forward(*args), region, True

        def conv(node: Node, need: int, count: int, cached: Optional[Array],
                 windowed_here: bool, boxable: bool):
            """A conv, windowed against its golden input and output when
            both are cached."""
            nonlocal conv_evaluated, conv_total
            args = dense_args(node, need, count)
            golden_x = cached_values.get(node.inputs[0])
            golden = (ConvGolden(golden_x, cached)
                      if windowed_here and golden_x is not None
                      and cached is not None else None)
            if golden is not None and boxing:
                x_rows = stores.get(node.inputs[0])
                golden.boxes = (None if x_rows is None
                                else x_rows.tight_boxes(need))
                golden.carry = boxable
            out = node.op.forward(*args, golden=golden)
            region = None if golden is None else golden.out_boxes
            h, w = (out if region is None else cached).shape[1:3]
            positions = count * h * w
            conv_total += positions
            conv_evaluated += (positions if golden is None
                               else golden.positions_evaluated)
            return out, region, region is not None

        def whole_rows(node: Node, need: int, count: int, boxable: bool,
                       pool: bool):
            """Any other operator, on whole rows; pooling maps its input's
            boxes through its window."""
            args = dense_args(node, need, count)
            out = node.op.forward(*args)
            region = None
            if boxable and pool:
                in_boxes = stores[node.inputs[0]].boxes_among(need)
                if in_boxes is not None:
                    op = node.op
                    region = reachable_boxes(
                        in_boxes, *args[0].shape[1:3], (op.pool, op.pool),
                        op.stride, op.padding, *out.shape[1:3])
            return out, region, False

        def reads_grid(inputs: Tuple[str, ...]) -> bool:
            """Whether every input of a grid-closed step is on the grid."""
            for inp in inputs:
                if inp in unchecked and not self._entry_on_grid(
                        graph.node(inp), *unchecked.pop(inp)):
                    off_grid.add(inp)
            return off_grid.isdisjoint(inputs)

        policy = self.dtype_policy
        hooked = bool(self._output_hooks or self._observers)
        for (node, position, releases, last_read, inputs, batch_invariant,
             kind, grid_closed) in schedule.steps:
            if not pending and position > last_dirty_use:
                break  # no remaining node can see a dirty row
            name = node.name
            is_seed = name in reeval_seeds
            if is_seed:
                need = every
            else:
                need = 0
                for inp in inputs:
                    if inp in stores:
                        need |= stores[inp].bits
            # An entry's installed rows (no other node is stored yet).
            entry = stores.get(name)
            if is_seed or entry is not None:
                pending -= 1
            # Rows entering here take their injected value as-is; only
            # rows that *another* entry dirtied upstream re-evaluate.
            need &= ~entries.get(name, 0)
            if not need:
                if entry is not None:
                    last_dirty_use = max(last_dirty_use, last_read)
                continue  # otherwise every input row is clean
            if batch_invariant:
                raise GraphError(
                    f"cannot re-evaluate batch-invariant node '{name}' "
                    f"({type(node.op).__name__}) in a replay: every row "
                    f"shares its cached value")
            count = need.bit_count()
            cached = cached_values.get(name)
            if cached is not None:
                cached = np.asarray(cached)
            # Whether this output carries boxes.
            boxable = (boxing and not is_seed and cached is not None
                       and cached.ndim == 4
                       and cached.size >= BOX_MIN_ELEMENTS)
            if kind == "placeholder":
                out, region, boxed_out = fed(name, need)
            elif kind == "conv":
                out, region, boxed_out = conv(node, need, count, cached,
                                              windowed and not is_seed, boxable)
            elif kind == "pointwise" and boxable:
                out, region, boxed_out = boxed_pointwise(
                    node, need, count, *cached.shape[1:3])
            else:
                out, region, boxed_out = whole_rows(node, need, count, boxable,
                                                    kind == "pool")
            for inp in releases:
                stores.pop(inp, None)
            if hooked:
                out = np.asarray(self._evaluate(node, out))
            elif not (grid_closed and skipping and reads_grid(inputs)):
                out = policy.apply(node, out)
            if kind == "pointwise" and np.ndim(cached) == 4:
                positions = count * cached.shape[1] * cached.shape[2]
                pointwise_total += positions
                pointwise_evaluated += (region.total if boxed_out
                                        else positions)
            rows_evaluated += count
            recomputed.add(name)
            # The row check.  A boxable output is checked over its region:
            # the box-packed result, a pool's reachable window, or — for an
            # output evaluated whole — the tight box of its changed bits.
            # Anything else is checked whole.
            is_tight = (boxable and region is None
                        and out.dtype == cached.dtype)
            if is_tight:
                region = diff_boxes(out, cached)
            if exact:
                changed = self._changed_rows(out, cached)
            else:
                dirty_mask, deviation = self._tolerant_rows(
                    out, cached, region, boxed_out, threshold)
                max_deviation = max(max_deviation, deviation)
                changed = _bits_of(dirty_mask)
            fresh = _pick(need, changed, batch)
            if fresh:
                # Evaluated arrays are never written after this point, so
                # when every row survives the output is stored uncopied.
                rows = _Rows(name, need, cached, batch,
                             boxed=out if boxed_out else None,
                             dense=None if boxed_out else out,
                             boxes=region, tight=is_tight)
                if fresh != need:
                    rows = rows.only(fresh)
                stores[name] = rows if entry is None else entry.merged(rows)
            elif entry is None:
                continue
            last_dirty_use = max(last_dirty_use, last_read)

        results: Dict[str, Array] = {}
        for name in requested:
            rows = stores.get(name)
            try:
                results[name] = (
                    np.array(self._broadcast_cached(cached_values[name],
                                                    name, batch))
                    if rows is None
                    else np.ascontiguousarray(rows.assemble(every, batch)))
            except KeyError:
                raise GraphError(
                    f"requested output '{name}' has clean rows but no "
                    f"cached value to serve them from") from None
        return BatchedExecutionResult(
            outputs=results, recomputed=recomputed,
            rows_evaluated=rows_evaluated, max_ulp_deviation=max_deviation,
            conv_positions_evaluated=conv_evaluated,
            conv_positions_total=conv_total,
            pointwise_positions_evaluated=pointwise_evaluated,
            pointwise_positions_total=pointwise_total)

    # -- training ---------------------------------------------------------------

    def run_with_gradients(self, feed: Mapping[str, Array],
                           loss_grad: Mapping[str, Array],
                           ) -> Tuple[ExecutionResult, Dict[str, Array]]:
        """Forward pass followed by reverse-mode backpropagation.

        Parameters
        ----------
        feed:
            Placeholder values.
        loss_grad:
            Mapping from output node names to the gradient of the scalar loss
            with respect to that output (the trainer computes these from the
            loss function).

        Returns
        -------
        The forward :class:`ExecutionResult` and a dict of gradients keyed by
        node name.  Gradients for :class:`Variable` nodes are also accumulated
        into the variables' ``grad`` attribute so optimizers can consume them.
        """
        result = self.run(feed, outputs=list(loss_grad.keys()))
        values = result.values
        grads: Dict[str, Array] = {
            name: np.asarray(g, dtype=np.float64) for name, g in loss_grad.items()
        }

        for node in reversed(self.graph.nodes()):
            if node.name not in grads:
                continue
            grad_out = grads[node.name]
            if isinstance(node.op, Variable):
                node.op.accumulate_grad(grad_out)
                continue
            if isinstance(node.op, Placeholder):
                continue
            inputs = [values[i] for i in node.inputs]
            input_grads = node.op.backward(grad_out, inputs, values[node.name])
            for inp_name, inp_grad in zip(node.inputs, input_grads):
                if inp_grad is None:
                    continue
                if inp_name in grads:
                    grads[inp_name] = grads[inp_name] + inp_grad
                else:
                    grads[inp_name] = inp_grad
        return result, grads


def set_training_mode(graph: Graph, training: bool) -> None:
    """Flip the ``training`` flag on every operator that has one (and drop
    the graph's replay schedules, which hoist flags that depend on it)."""
    for node in graph:
        if hasattr(node.op, "training"):
            node.op.training = training
    graph.clear_schedules()
