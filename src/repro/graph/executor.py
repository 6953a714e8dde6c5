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
from .graph import Graph, GraphError, Node

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

#: Smallest per-row element count for which ULP_TOLERANT replay runs the
#: full three-tier row-divergence screen.  Masked faults die at the big
#: early activations, where the tiered screen earns its dispatch cost; below
#: the floor a single exact-equality comparison terminates masked rows
#: instead (a conservative subset: a row within ULP tolerance but not
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
    """

    name = "float64"

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
        """
        feed = dict(feed or {})
        requested = list(outputs) if outputs is not None else list(self.graph.outputs)
        if not requested:
            raise GraphError("graph has no outputs and none were requested")
        missing = [name for name in requested if name not in self.graph]
        if missing:
            raise GraphError(f"requested outputs not in graph: {missing}")
        needed = self.graph.ancestors(requested) if prune else None
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
            values[node.name] = self._evaluate(node, out)

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
    def _row_divergence(rows: Array, cached: Array,
                        threshold: float) -> Tuple[np.ndarray, float]:
        """Classify stacked float64 rows against a batch-1 cached value.

        Returns ``(dirty, max_clean_deviation)``: a boolean mask of the rows
        whose maximum ULP distance from the cached row exceeds ``threshold``,
        and the largest distance among the rows declared clean (the
        tolerance actually consumed).

        Hot path, three tiers: a strided subsample convicts the typical
        *dirty* row (a surviving fault's deviation provably exceeds any
        sane ULP threshold) without reading most of its elements; an exact
        equality pass retires the typical *clean* row (fixed-point dtype
        policies quantize masked rows back onto exactly the cached grid
        values); and only the elements that differ pay the subtract/abs/
        max screen, with exact ULP arithmetic for the rare rows the screen
        cannot decide.
        """
        count = rows.shape[0]
        if rows.dtype != np.float64:  # pragma: no cover - defensive
            dirty = np.array([not np.array_equal(rows[i], cached[0])
                              for i in range(count)], dtype=bool)
            return dirty, 0.0
        max_cached = float(np.abs(cached).max()) if cached.size else 0.0
        eps = np.finfo(np.float64).eps
        flat = rows.reshape(count, -1)
        flat_cached = cached.reshape(-1)
        elements = flat.shape[1]
        dirty = np.ones(count, dtype=bool)
        undecided = np.arange(count)
        if count > 1:
            # Sampled pre-screen: a surviving fault perturbs a visible
            # fraction of a conv/norm output, so a strided subsample almost
            # always proves a dirty row dirty without reading the other
            # ~99% of its elements.  Rows the sample cannot convict (clean
            # rows, NaN samples, sub-threshold noise) fall through to the
            # exact screens below — sampling can only defer a verdict,
            # never decide one.
            stride = max(1, elements // 1024)
            speak = np.abs(flat[:, ::stride]
                           - flat_cached[::stride]).max(axis=1)
            sample_dirty = speak > threshold * eps * (max_cached + speak)
            if sample_dirty.all():
                return sample_dirty, 0.0
            undecided = np.flatnonzero(~sample_dirty)
        # The rows the sample could not convict are settled one at a time
        # (gathering them first would copy every row just to read it once).
        # Exact equality retires the typical clean row: masked rows land
        # *exactly* on the cached values under fixed-point dtype policies
        # (quantization snaps them back onto the grid).  (`!=` equates -0.0
        # with 0.0, a zero deviation; NaNs compare unequal.)
        #
        # A row that differs is classified by its peak deviation, which
        # lies among its unequal elements — typically a small patch around
        # the fault — so only those are gathered and subtracted.  A row
        # whose peak deviation provably exceeds the threshold in ULPs is
        # surely dirty.  The ULP size at magnitude m is at most eps*m for
        # normal floats, and for the peak-deviation element |a| <=
        # max|cached| and |b| <= max|cached| + peak, so peak > threshold *
        # eps * (max|cached| + peak) proves the distance exceeds the
        # threshold — a real fault's deviation sits astronomically above
        # this line.  (Subnormals can be over-flagged as dirty, which only
        # forgoes masking, never correctness.)
        #
        # Rows below the screen (BLAS reassociation noise) or with NaN
        # peaks (NaN comparisons are False) pay for exact ULP distances,
        # which also treat equal-payload NaNs as distance 0.
        deviation = 0.0
        for i in undecided:
            unequal = flat[i] != flat_cached
            if not unequal.any():
                dirty[i] = False
                continue
            peak = np.abs(flat[i][unequal] - flat_cached[unequal]).max()
            if peak > threshold * eps * (max_cached + peak):
                continue
            dist = float(max_row_ulp_distance(rows[i:i + 1], cached)[0])
            if dist <= threshold:
                dirty[i] = False
                deviation = max(deviation, dist)
        return dirty, deviation

    @staticmethod
    def _region_rows(values: Array, golden_values: Array, region: RowBoxes,
                     cached: Array, threshold: float
                     ) -> Optional[Tuple[np.ndarray, float]]:
        """The ``ULP_TOLERANT`` row check of :meth:`_dirty_rows`, read
        off the region alone.

        ``values`` and ``golden_values`` are box-packed over ``region``
        (one box per evaluated row); outside its box each row is
        bit-identical to ``cached``.  Returns ``(dirty, deviation)`` with
        a boolean dirty mask over the rows — the verdict
        :meth:`_dirty_rows` gives the whole rows: below
        :data:`DIVERGENCE_CHECK_MIN_ELEMENTS` elements per row, plain
        equality; above it, :meth:`_row_divergence`'s exact tiers (a row
        is clean when every element equals golden, surely dirty when its
        peak deviation clears the screen against the whole golden row's
        largest magnitude, and otherwise settled by its ULP distance).
        Bits outside the box equal golden, so they add no inequality, no
        deviation and no ULP distance.  That fails for a golden NaN
        (unequal to itself under ``==``, and a NaN peak under the
        screen) and an infinity (``inf - inf``), so a golden value holding
        either returns ``None`` for the caller to check whole rows.
        """
        count = len(region)
        if values.dtype != cached.dtype:
            return None
        nonempty = np.flatnonzero(region.sizes)
        # Per-row reductions over the flat box-packed elements: one
        # segment per non-empty row (reducing the short channel axis
        # first costs several times more).
        starts = region.starts[nonempty] * values.shape[1]
        if cached.size < DIVERGENCE_CHECK_MIN_ELEMENTS:
            if np.isnan(cached).any():
                return None
            clean = np.ones(count, dtype=bool)
            if len(nonempty):
                clean[nonempty] = np.logical_and.reduceat(
                    (values == golden_values).ravel(), starts)
            return ~clean, 0.0
        max_cached = float(np.abs(cached).max())
        if not np.isfinite(max_cached):
            return None
        peak = np.zeros(count)
        if len(nonempty):
            peak[nonempty] = np.maximum.reduceat(
                np.abs(values - golden_values).ravel(), starts)
        eps = np.finfo(np.float64).eps
        # NaN peaks compare False here and fall through to ULP distances.
        dirty = peak > threshold * eps * (max_cached + peak)
        deviation = 0.0
        for k in np.flatnonzero(~dirty & (peak != 0)):
            start = region.starts[k]
            end = start + region.sizes[k]
            dist = float(max_row_ulp_distance(values[None, start:end],
                                              golden_values[None, start:end])[0])
            if dist <= threshold:
                deviation = max(deviation, dist)
            else:
                dirty[k] = True
        return dirty, deviation

    @staticmethod
    def _dirty_rows(out: Array, cached: Optional[Array], exact: bool,
                    threshold: float) -> Tuple[int, float]:
        """Which of the evaluated rows ``out`` still differ from the cache.

        Returns ``(dirty, deviation)``: a bitset over the rows of ``out``
        (bit ``j`` set when row ``j`` is dirty) and the tolerance the clean
        rows consumed.  Under ``EXACT`` a row is clean only when
        bit-identical to the cache (``-0.0`` is not ``0.0``; NaNs with
        equal payloads match).  Under ``ULP_TOLERANT`` a row is clean
        within ``threshold`` ULPs; below
        :data:`DIVERGENCE_CHECK_MIN_ELEMENTS` elements per row plain
        equality decides (a row within tolerance but not equal stays
        dirty, carrying its exact value).  Without a comparable cached
        value every row is dirty.
        """
        count = out.shape[0]
        if exact and count == 1:
            return int(cached is None or not bit_identical(out, cached)), 0.0
        if cached is not None:
            cached = np.asarray(cached)
        if (cached is None or cached.dtype != out.dtype
                or cached.shape[1:] != out.shape[1:]):
            return (1 << count) - 1, 0.0
        if exact:
            bits = _UINT_OF_SIZE[out.dtype.itemsize]
            same = out.view(bits) == cached.view(bits)
            return _bits_of(~same.reshape(count, -1).all(axis=1)), 0.0
        if out.size < DIVERGENCE_CHECK_MIN_ELEMENTS * count:
            same = (out == cached).reshape(count, -1).all(axis=1)
            return _bits_of(~same), 0.0
        dirty, deviation = Executor._row_divergence(out, cached, threshold)
        return _bits_of(dirty), deviation

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
        union of its inputs' boxes, box-packed, and so does the dtype
        policy; the row check reads only the box and gives the verdict the
        whole-row check would.  A conv reads its windows off its input's
        boxes, tightened to the changed bits first, instead of comparing
        the input against golden.  Dense rows are spliced from the
        box-packed ones only for consumers that need them.  The outputs,
        ``rows_evaluated`` and conv positions are those of whole-row
        evaluation, byte for byte.

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
        # (installed, never re-evaluated) and the dirty part of them with
        # its packed values (one row per set bit, ascending row order).
        # Homogeneous overrides enter on every row.
        entries: Dict[str, Tuple[int, int, Array]] = {}
        # Windowed replay carries a box per dirty row of every NHWC store
        # (see repro.ops.boxes): outside it the row is bit-identical to
        # golden, so pointwise steps, quantization and the row checks
        # touch only the box.  Hooks and observers see whole arrays and
        # keep whole-row evaluation.
        boxing = windowed and not self._observers
        entry_boxes: Dict[str, RowBoxes] = {}
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
            if exact:
                changed, _ = self._dirty_rows(rows, cached, True, 0.0)
                live = _pick(bits, changed, batch)
                if live and live != bits:
                    rows = rows[_mask_of(changed, rows.shape[0])]
            elif (boxing and cached is not None and rows.ndim == 4
                  and rows.dtype == cached.dtype
                  and cached.size >= BOX_MIN_ELEMENTS):
                entry_boxes[name] = diff_boxes(rows, cached)
            entries[name] = (bits, live, rows)
        # Entries are installed when the walk reaches them (another entry's
        # dirt may flow *through* them first), so the walk must not end
        # while dirty entries are pending.  Entries outside the requested
        # outputs' ancestors cannot influence any output.
        pending_entries = sum(1 for name, (_, live, _) in entries.items()
                              if live and name in schedule.members)
        pending_seeds = len(reeval_seeds & schedule.members)

        # Packed dirty rows: per node, the bitset of rows that differ from
        # golden and their values alone, in row order.  Rows absent from
        # the bitset are implicitly golden, so masked faults cost nothing
        # downstream.  A store is dropped once its last reader in the cone
        # has run (requested outputs excepted): holding every store to the
        # end grows the heap by the whole cone's activations per call.
        # With boxes, a store holds its rows dense (``packed_of``),
        # box-packed (``boxed_of``) or both; dense rows are spliced from
        # the box-packed ones when a consumer needs them.
        dirty_bits: Dict[str, int] = {}
        packed_of: Dict[str, Array] = {}
        boxes_of: Dict[str, RowBoxes] = {}
        boxed_of: Dict[str, Array] = {}
        #: Stores whose boxes are tight: each is the bounding box of the
        #: positions where its row's bits differ from golden.  Boxes from
        #: a bit comparison are; region boxes (pointwise steps, conv
        #: windows, pooling) may be wider, and are tightened where a conv
        #: needs them tight.
        tight: Set[str] = set()
        recomputed: Set[str] = set()
        rows_evaluated = 0
        conv_evaluated = conv_total = 0
        pointwise_evaluated = pointwise_total = 0
        max_deviation = 0.0
        last_dirty_use = -1

        def dense_of(name: str) -> Array:
            """A dirty store's packed rows, dense."""
            packed = packed_of.get(name)
            if packed is None:
                packed = splice(np.asarray(cached_values[name]),
                                boxes_of[name], boxed_of[name])
                packed_of[name] = packed
            return packed

        def assemble_input(name: str, need: int, count: int) -> Array:
            """An input's rows for the ``count`` rows a consumer evaluates.

            Clean rows come from the (broadcast) golden cache; dirty rows
            from the packed store.  When the consumer needs exactly the
            input's dirty rows — the common case — the packed array is
            returned as-is, copy-free.
            """
            bits = dirty_bits.get(name)
            if bits is None:
                value = cached_values[name]
                return (value if count == 1
                        else self._broadcast_cached(value, name, count))
            packed = dense_of(name)
            if bits == need:
                return packed
            cached = np.asarray(cached_values[name])
            # Fill an empty buffer row class by row class: every row is
            # written exactly once.  ``need`` may exclude rows the input is
            # dirty for (an entry node's own rows are installed, not
            # evaluated), so the dirty scatter takes the bits ∩ need
            # subset of the packed store.
            need_mask = _mask_of(need, batch)
            mask = _mask_of(bits, batch)
            assembled = np.empty((count,) + cached.shape[1:],
                                 dtype=np.result_type(cached, packed))
            position_of = np.cumsum(need_mask) - 1
            take = mask & need_mask
            assembled[position_of[need_mask & ~mask]] = cached
            if bits & need:
                assembled[position_of[take]] = (
                    packed if bits & need == bits else packed[take[mask]])
            return assembled

        def slots_in(name: str, need: int) -> Tuple[Array, Array]:
            """For the ``need`` rows (ranked) that ``name`` holds dirty:
            their ranks among ``need`` and their indices in its store."""
            need_rows = np.flatnonzero(_mask_of(need, batch))
            mask = _mask_of(dirty_bits[name], batch)
            held = mask[need_rows]
            return (np.flatnonzero(held),
                    (np.cumsum(mask) - 1)[need_rows[held]])

        def boxes_for(name: str, need: int) -> Optional[RowBoxes]:
            """The boxes of ``name``'s rows for a consumer evaluating
            exactly its dirty rows among ``need`` (``None``: no box)."""
            boxes = boxes_of.get(name)
            if boxes is None or dirty_bits[name] == need:
                return boxes
            return boxes.take(slots_in(name, need)[1])

        def tight_for(name: str, need: int) -> Optional[RowBoxes]:
            """Tight boxes of ``name``'s rows among ``need`` (``None``: no
            box), for a conv that reads its windows off them: they must be
            the boxes its own input comparison would find."""
            boxes = boxes_of.get(name)
            if boxes is None:
                return None
            if name not in tight:
                values = boxed_of.get(name)
                if values is None:
                    values = gather(packed_of[name], boxes)
                cached = np.asarray(cached_values[name])
                golden_values = cached.reshape(-1, cached.shape[-1])[
                    boxes.golden_index(cached.shape[2])]
                # The conv reads the rows dense: splice them before the
                # box-packed layout is dropped.
                dense_of(name)
                boxed_of.pop(name, None)
                boxes_of[name] = tighten(values, golden_values, boxes)
                tight.add(name)
            return boxes_for(name, need)

        def pointwise_inputs(inputs: Tuple[str, ...], need: int, count: int,
                             h: int, w: int):
            """``(region, args)`` of a pointwise step over boxes, or
            ``None`` when an input does not fit the box layout."""
            dirty: List[str] = []
            for inp in inputs:
                value = cached_values.get(inp)
                if value is None:
                    return None
                if graph.node(inp).op.batch_axis is None:
                    if np.ndim(value) > 1:
                        return None  # must broadcast over channels alone
                    continue
                if np.ndim(value) != 4 or np.shape(value)[1:3] != (h, w):
                    return None
                if dirty_bits.get(inp, 0) & need:
                    dirty.append(inp)
            if (len(dirty) == 1 and dirty_bits[dirty[0]] == need
                    and dirty[0] in boxes_of):
                region = boxes_of[dirty[0]]
            else:
                parts = []
                for inp in dirty:
                    boxes = boxes_of.get(inp)
                    if dirty_bits[inp] == need:
                        parts.append((np.arange(count), boxes))
                    else:
                        slots, held = slots_in(inp, need)
                        parts.append((slots, None if boxes is None
                                      else boxes.take(held)))
                region = union(parts, count, h, w)
            args = []
            for inp in inputs:
                if graph.node(inp).op.batch_axis is None:
                    args.append(cached_values[inp])
                else:
                    args.append(region_values(inp, need, region, w))
            return region, args

        def region_values(name: str, need: int, region: RowBoxes,
                          w: int) -> Array:
            """Input ``name`` at the region's positions, box-packed."""
            bits = dirty_bits.get(name, 0)
            if bits == need:
                boxed = boxed_of.get(name)
                if boxed is not None and boxes_of[name].same_as(region):
                    return boxed
                if name in packed_of:
                    return gather(packed_of[name], region)
            cached = np.asarray(cached_values[name])
            values = cached.reshape(-1, cached.shape[-1])[
                region.golden_index(w)]
            if not bits & need:
                return values
            slots, held = slots_in(name, need)
            slot_of = np.full(len(region), -1)
            slot_of[slots] = held
            row, i, j = region.positions()
            at = np.flatnonzero(slot_of[row] >= 0)
            slot, i, j = slot_of[row[at]], i[at], j[at]
            packed = packed_of.get(name)
            if packed is not None:
                h = cached.shape[1]
                values[at] = packed.reshape(-1, cached.shape[-1])[
                    (slot * h + i) * w + j]
                return values
            boxes = boxes_of[name]
            top, left = boxes.top[slot], boxes.left[slot]
            inside = ((i >= top) & (i <= boxes.bottom[slot])
                      & (j >= left) & (j <= boxes.right[slot]))
            values[at[inside]] = boxed_of[name][
                (boxes.starts[slot] + (i - top) * boxes.widths[slot]
                 + (j - left))[inside]]
            return values

        policy = self.dtype_policy
        hooked = bool(self._output_hooks or self._observers)
        for (node, position, releases, last_read, inputs, is_conv,
             is_placeholder, batch_invariant, pointwise,
             is_pool) in schedule.steps:
            if (not pending_seeds and not pending_entries
                    and position > last_dirty_use):
                break  # no remaining node can see a dirty row
            name = node.name
            is_seed = name in reeval_seeds
            if is_seed:
                need = every
            else:
                need = 0
                for inp in inputs:
                    need |= dirty_bits.get(inp, 0)
            entry = entries.get(name)
            live = 0
            if entry is not None:
                entering, live, live_rows = entry
                if live:
                    pending_entries -= 1
                # Rows entering here take their injected value as-is; only
                # rows that *another* entry dirtied upstream re-evaluate.
                need &= ~entering
            if not need:
                if live:
                    dirty_bits[name] = live
                    packed_of[name] = live_rows
                    if name in entry_boxes:
                        boxes_of[name] = entry_boxes[name]
                        tight.add(name)
                    last_dirty_use = max(last_dirty_use, last_read)
                continue  # otherwise every input row is clean
            if batch_invariant:
                raise GraphError(
                    f"cannot re-evaluate batch-invariant node '{name}' "
                    f"({type(node.op).__name__}) in a replay: every row "
                    f"shares its cached value")
            count = need.bit_count()
            cached = cached_values.get(name)
            # Whether this output carries boxes, and its region: when set,
            # the output is box-packed over it (or, for pooling, dense but
            # golden outside it).
            boxable = (boxing and not is_seed and cached is not None
                       and np.ndim(cached) == 4
                       and np.size(cached) >= BOX_MIN_ELEMENTS)
            if boxable:
                cached = np.asarray(cached)
            region: Optional[RowBoxes] = None
            boxed_out = False
            if is_placeholder:
                if name not in feed:
                    raise GraphError(
                        f"placeholder '{name}' is dirty but no value was fed")
                fed = np.asarray(feed[name], dtype=np.float64)
                if fed.shape[0] not in (1, batch):
                    raise GraphError(
                        f"fed value for dirty placeholder '{name}' has "
                        f"{fed.shape[0]} rows; expected 1 or {batch}")
                fed = np.broadcast_to(fed, (batch,) + fed.shape[1:])
                out = np.array(fed if need == every
                               else fed[_mask_of(need, batch)])
            else:
                boxed_step = None
                if boxable and pointwise:
                    boxed_step = pointwise_inputs(
                        inputs, need, count, *np.shape(cached)[1:3])
                try:
                    if boxed_step is not None:
                        region, args = boxed_step
                        boxed_out = True
                    else:
                        args = [assemble_input(inp, need, count)
                                for inp in inputs]
                except KeyError as exc:
                    raise GraphError(
                        f"no cached value for input {exc} of node "
                        f"'{name}'") from None
                if is_conv:
                    golden_x = cached_values.get(inputs[0])
                    golden = (ConvGolden(golden_x, cached)
                              if windowed and not is_seed
                              and golden_x is not None and cached is not None
                              else None)
                    if golden is not None and boxing:
                        golden.boxes = tight_for(inputs[0], need)
                        golden.carry = boxable
                    out = node.op.forward(*args, golden=golden)
                    if golden is not None and golden.out_boxes is not None:
                        region = golden.out_boxes
                        boxed_out = True
                        positions = count * cached.shape[1] * cached.shape[2]
                    else:
                        positions = out.shape[0] * out.shape[1] * out.shape[2]
                    conv_total += positions
                    conv_evaluated += (positions if golden is None
                                       else golden.positions_evaluated)
                else:
                    out = node.op.forward(*args)
                    if boxable and is_pool:
                        in_boxes = boxes_for(inputs[0], need)
                        if in_boxes is not None:
                            op = node.op
                            region = reachable_boxes(
                                in_boxes, *args[0].shape[1:3],
                                (op.pool, op.pool), op.stride, op.padding,
                                *out.shape[1:3])
                del args
                for inp in releases:
                    dirty_bits.pop(inp, None)
                    packed_of.pop(inp, None)
                    boxes_of.pop(inp, None)
                    boxed_of.pop(inp, None)
                    tight.discard(inp)
            if hooked:
                out = np.asarray(self._evaluate(node, out))
            else:
                out = policy.apply(node, out)
            if pointwise and np.ndim(cached) == 4:
                positions = count * cached.shape[1] * cached.shape[2]
                pointwise_total += positions
                pointwise_evaluated += (region.total if boxed_out
                                        else positions)
            rows_evaluated += count
            recomputed.add(name)
            if is_seed:
                pending_seeds -= 1
            # The row check.  A boxable output is checked over its region:
            # the box-packed result, a pool's reachable window, or — for an
            # output evaluated whole — the tight box of its changed bits.
            # Anything else is checked whole.
            is_tight = False
            if boxable and region is None and out.dtype == cached.dtype:
                region = diff_boxes(out, cached)
                is_tight = True
            verdict = None
            if region is not None:
                cached = np.asarray(cached)
                values = out if boxed_out else gather(out, region)
                golden_values = cached.reshape(-1, cached.shape[-1])[
                    region.golden_index(cached.shape[2])]
                verdict = self._region_rows(values, golden_values, region,
                                            cached, threshold)
                if verdict is None and boxed_out:
                    # A NaN or an infinity in golden: the region check
                    # cannot mirror the whole-row one, so check the rows.
                    out = splice(cached, region, values)
                    boxed_out = False
            if verdict is not None:
                dirty_mask, deviation = verdict
                changed = _bits_of(dirty_mask)
            else:
                changed, deviation = self._dirty_rows(out, cached, exact,
                                                      threshold)
            max_deviation = max(max_deviation, deviation)
            fresh = _pick(need, changed, batch)
            # Clean rows drop out; the survivors keep their region rows as
            # their boxes.
            boxes = region
            if fresh != need and fresh:
                if region is not None:
                    if verdict is None:
                        dirty_mask = _mask_of(changed, count)
                    boxes = region.take(np.flatnonzero(dirty_mask))
                out = (values[dirty_mask[region.positions()[0]]]
                       if boxed_out else out[_mask_of(changed, count)])
            if live:
                # Merge the injected entry rows with the re-evaluated ones
                # (ascending row order, like every packed store).
                if boxed_out and fresh:
                    out = splice(np.asarray(cached), boxes, out)
                final = live | fresh
                final_mask = _mask_of(final, batch)
                position_of = np.cumsum(final_mask) - 1
                combined = np.empty((final.bit_count(),) + live_rows.shape[1:],
                                    dtype=np.result_type(live_rows, out))
                live_at = position_of[_mask_of(live, batch)]
                combined[live_at] = live_rows
                fresh_at = position_of[_mask_of(fresh, batch)]
                if fresh:
                    combined[fresh_at] = out
                dirty_bits[name] = final
                packed_of[name] = combined
                entry_box = entry_boxes.get(name)
                if entry_box is not None and (boxes is not None
                                              or not fresh):
                    # The two row sets are disjoint: their union places
                    # each box at its row.
                    parts = [(live_at, entry_box)]
                    if fresh:
                        parts.append((fresh_at, boxes))
                    boxes_of[name] = union(parts, final.bit_count(),
                                           *live_rows.shape[1:3])
                    if is_tight or not fresh:
                        tight.add(name)
            elif fresh:
                # Evaluated arrays are never written after this point, so
                # when every row survives the output is stored uncopied.
                dirty_bits[name] = fresh
                if boxed_out:
                    boxed_of[name] = out
                else:
                    packed_of[name] = out
                if boxes is not None:
                    boxes_of[name] = boxes
                    if is_tight:
                        tight.add(name)
            else:
                continue
            last_dirty_use = max(last_dirty_use, last_read)

        results: Dict[str, Array] = {}
        for name in requested:
            bits = dirty_bits.get(name, 0)
            if bits == every:
                results[name] = np.ascontiguousarray(dense_of(name))
                continue
            try:
                cached = cached_values[name]
            except KeyError:
                raise GraphError(
                    f"requested output '{name}' has clean rows but no "
                    f"cached value to serve them from") from None
            full = np.array(self._broadcast_cached(cached, name, batch))
            if bits:
                full[_mask_of(bits, batch)] = dense_of(name)
            results[name] = full
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
