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
from .equivalence import (DEFAULT_MAX_ULPS, EquivalenceMode,
                          max_row_ulp_distance)
from .graph import Graph, GraphError, Node

#: An output hook receives (node, output) and returns a possibly-modified
#: output array.  Hooks run in registration order after the operator executes.
OutputHook = Callable[[Node, Array], Array]

#: An observer receives (node, output) and returns nothing.  Observers run
#: after all output hooks.
Observer = Callable[[Node, Array], None]

#: Smallest per-row element count for which batched replay runs the full
#: three-tier row-divergence screen.  Masked faults die at the big early
#: activations, where the tiered screen earns its dispatch cost; below the
#: floor a single exact-equality comparison terminates masked rows instead
#: (a conservative subset: a row within ULP tolerance but not bit-equal
#: just stays dirty, carrying its exact value).  Correctness is unaffected
#: either way — snapping a row back to golden only ever replaces a value
#: proved (bit- or ULP-) equal to golden.
DIVERGENCE_CHECK_MIN_ELEMENTS = 8192

#: Adaptive back-off for the full divergence screen: once this many
#: consecutive checked nodes mask nothing (the steady state of
#: skip-connection graphs, whose residual adds keep every surviving row
#: alive to the output), the screen runs only every
#: ``DIVERGENCE_BACKOFF_STRIDE``-th big node until a mask is seen again.
#: A late-masking row then terminates within a stride's worth of extra
#: node evaluations — and on mask-heavy configurations the counter keeps
#: resetting, so the screen effectively never backs off.
DIVERGENCE_BACKOFF_NODES = 3
DIVERGENCE_BACKOFF_STRIDE = 6


class DTypePolicy:
    """Numeric policy applied to every operator output.

    The default policy is plain float64 (no transformation).  The fixed-point
    policies in :mod:`repro.quantization` subclass this to round every value
    to a Qm.n grid with saturation, which is how the paper's "32-bit
    fixed-point datatype" configuration is modelled.
    """

    name = "float64"

    def apply(self, node: Node, value: Array) -> Array:
        return value


def bit_identical(a: Array, b: Array) -> bool:
    """True when two arrays hold exactly the same bits.

    Raw-byte comparison, deliberately stricter than ``==``: NaNs with equal
    payloads compare equal (deterministic operators on identical bits give
    identical bits downstream), while ``-0.0`` and ``0.0`` compare unequal
    (they are different bit patterns).  Both directions are safe for change
    propagation, and a single memcmp is cheaper than an elementwise pass.
    """
    if a is b:
        return True
    a = np.asarray(a)
    b = np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


@dataclass
class ExecutionResult:
    """Outputs of one forward pass plus the cached per-node values.

    ``recomputed`` is populated by partial re-execution
    (:meth:`Executor.run_from`) with the names of the nodes that were
    actually re-evaluated; everything else came from the supplied cache.
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
    value — the tolerance the run actually consumed, reported alongside
    ULP_TOLERANT results so the equivalence claim is auditable.
    """

    outputs: Dict[str, Array]
    recomputed: Set[str] = field(default_factory=set)
    rows_evaluated: int = 0
    max_ulp_deviation: float = 0.0

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
        """Partial re-execution from a per-node activation cache.

        Resumes a forward pass from ``cached_values`` (the ``values`` of a
        previous :meth:`run` over the same graph), re-evaluating only the
        downstream cone of the dirty set that the requested outputs depend
        on.  Everything upstream keeps its cached value bit-for-bit, which
        is what makes fault-injection campaigns cheap: a fault at node *k*
        can only perturb descendants of *k*.

        The dirty set is seeded two ways:

        * ``dirty`` — node names whose operators must be *re-evaluated*
          (e.g. a variable whose weights changed);
        * ``dirty_values`` — node name → replacement output.  The value is
          installed as-is, **without** re-running the operator or applying
          the dtype policy / hooks (it is taken to be a final, already
          policy-processed value).  This is how the fault injector swaps a
          corrupted copy of a cached activation in for free instead of
          paying for the fault node's forward pass again.

        Re-execution propagates *change* rather than mere reachability: a
        re-evaluated node whose output is bit-identical to its cached value
        (a fault squashed by a ReLU, a max-pool, or a Ranger clip) stops
        dirtying its consumers, and the pass terminates early once no dirty
        value remains — so the result is bit-identical to a full run while
        often touching only a handful of nodes.

        The dtype policy, output hooks and observers are applied to every
        re-evaluated node exactly as in :meth:`run`; cached nodes already
        carry their policy-processed values and are not revisited.  Note
        that non-deterministic operators (e.g. the ``"random"``
        out-of-bound policy) draw fresh randomness when re-evaluated, just
        as they would in any fresh full run.

        Parameters
        ----------
        cached_values:
            Node-name → activation mapping from a prior fault-free run.
        dirty:
            Node name(s) whose operators must be re-evaluated.
        outputs:
            Node names to report; defaults to the graph's marked outputs.
        feed:
            Only needed when a placeholder itself is marked dirty.
        dirty_values:
            Node name → replacement output installed without re-evaluation.
        """
        feed = dict(feed or {})
        requested = list(outputs) if outputs is not None else list(self.graph.outputs)
        if not requested:
            raise GraphError("graph has no outputs and none were requested")
        overrides = dict(dirty_values or {})
        reeval_seeds = ({dirty} if isinstance(dirty, str) else set(dirty))
        reeval_seeds -= set(overrides)
        seeds = reeval_seeds | set(overrides)
        for name in seeds:
            if name not in self.graph:
                raise GraphError(f"unknown dirty node '{name}'")

        values: Dict[str, Array] = dict(cached_values)
        recomputed: Set[str] = set()
        live_dirty: Set[str] = set()

        dirty_overrides: List[str] = []
        for name, value in overrides.items():
            values[name] = value
            cached = cached_values.get(name)
            if cached is None or not bit_identical(value, cached):
                live_dirty.add(name)
                dirty_overrides.append(name)

        if not seeds or (not live_dirty and not reeval_seeds):
            # Nothing can change: every requested output is cached.
            missing = [name for name in requested if name not in values]
            if missing:
                raise GraphError(
                    f"run_from(): requested outputs not in the cache: "
                    f"{missing}")
            return ExecutionResult(
                outputs={name: values[name] for name in requested},
                values=values, recomputed=recomputed)

        cone = self.graph.downstream(seeds)
        needed = self.graph.ancestors(requested)
        recompute = (cone & needed) - set(overrides)
        pending_seeds = len(reeval_seeds & recompute)
        topo = self.graph.topo_index()

        # A dirty value stops mattering once its last consumer inside the
        # recompute set has been visited; tracking that horizon lets the
        # loop break as soon as no remaining node can see a dirty input
        # (e.g. a fault masked by the first ReLU after the fault site).
        def influence_horizon(name: str) -> int:
            return max((topo[c] for c in self.graph.successors(name)
                        if c in recompute), default=-1)

        last_dirty_use = max((influence_horizon(name)
                              for name in dirty_overrides), default=-1)

        for name in sorted(recompute, key=topo.__getitem__):
            position = topo[name]
            if not pending_seeds and position > last_dirty_use:
                break  # no remaining node can have a dirty input
            node = self.graph.node(name)
            is_seed = name in reeval_seeds
            if not is_seed and not any(i in live_dirty for i in node.inputs):
                continue  # every input is clean: the cached value stands
            if isinstance(node.op, Placeholder):
                if name not in feed:
                    raise GraphError(
                        f"placeholder '{name}' is dirty but no value was fed")
                out = np.asarray(feed[name], dtype=np.float64)
            else:
                try:
                    args = [values[i] for i in node.inputs]
                except KeyError as exc:
                    raise GraphError(
                        f"run_from(): no cached value for input {exc} of "
                        f"node '{name}'") from None
                out = node.op.forward(*args)
            out = self._evaluate(node, out)
            values[name] = out
            recomputed.add(name)
            if is_seed:
                pending_seeds -= 1
            cached = cached_values.get(name)
            if cached is not None and bit_identical(out, cached):
                live_dirty.discard(name)  # the change was masked
            else:
                live_dirty.add(name)
                last_dirty_use = max(last_dirty_use, influence_horizon(name))

        missing = [name for name in requested if name not in values]
        if missing:
            raise GraphError(
                f"run_from(): requested outputs missing from both the cache "
                f"and the recomputed cone: {missing}")
        return ExecutionResult(
            outputs={name: values[name] for name in requested},
            values=values,
            recomputed=recomputed,
        )

    # -- batched partial re-execution ------------------------------------------

    @staticmethod
    def _row_divergence(rows: Array, cached: Optional[Array],
                        threshold: float) -> Tuple[np.ndarray, float]:
        """Classify stacked rows against a batch-1 cached value.

        Returns ``(dirty, max_clean_deviation)``: a boolean mask of the rows
        whose maximum ULP distance from the cached row exceeds ``threshold``
        (all rows when no cached value exists or shapes/dtypes are not
        comparable), and the largest distance among the rows declared clean
        (the tolerance actually consumed).

        Hot path, three tiers: a strided subsample convicts the typical
        *dirty* row (a surviving fault's deviation provably exceeds any
        sane ULP threshold) without reading most of its elements; an exact
        equality pass retires the typical *clean* row (fixed-point dtype
        policies quantize masked rows back onto exactly the cached grid
        values); and only the contested remainder pays the subtract/abs/
        row-max screen, with exact ULP arithmetic for the rare rows the
        screen cannot decide.
        """
        rows = np.asarray(rows)
        count = rows.shape[0]
        if (cached is None or np.asarray(cached).dtype != rows.dtype
                or np.asarray(cached).shape[1:] != rows.shape[1:]):
            return np.ones(count, dtype=bool), 0.0
        if rows.dtype != np.float64:  # pragma: no cover - defensive
            dirty = np.array([not np.array_equal(rows[i], cached[0])
                              for i in range(count)], dtype=bool)
            return dirty, 0.0
        max_cached = float(np.abs(cached).max()) if cached.size else 0.0
        eps = np.finfo(np.float64).eps
        flat = rows.reshape(count, -1)
        flat_cached = np.asarray(cached).reshape(-1)
        elements = flat.shape[1]
        dirty = np.ones(count, dtype=bool)
        undecided = np.arange(count)
        if count > 1 and elements >= DIVERGENCE_CHECK_MIN_ELEMENTS:
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
        # Exact-equality pass: masked rows land *exactly* on the cached
        # values under fixed-point dtype policies (quantization snaps them
        # back onto the grid), so one comparison retires the typical clean
        # row with a bool temporary instead of the float subtract sweep.
        # (`==` equates -0.0 with 0.0, matching the subtract screen's
        # zero-deviation verdict; NaNs compare unequal and fall through.)
        sub = flat if len(undecided) == count else flat[undecided]
        equal = (sub == flat_cached).all(axis=1)
        dirty[undecided[equal]] = False
        contested = undecided[~equal]
        if not contested.size:
            return dirty, 0.0
        # One subtract+abs pass and a row max classify the contested rest:
        # a row whose peak deviation provably exceeds the threshold in
        # ULPs is surely dirty.  The ULP size at magnitude m is at most
        # eps*m for normal floats, and for the peak-deviation element
        # |a| <= max|cached| and |b| <= max|cached| + peak, so peak >
        # threshold * eps * (max|cached| + peak) proves the distance
        # exceeds the threshold — a real fault's deviation sits
        # astronomically above this line.  (Subnormals can be over-flagged
        # as dirty, which only forgoes masking, never correctness.)
        delta = np.abs(flat[contested] - flat_cached)
        peak = delta.max(axis=1)
        surely_dirty = peak > threshold * eps * (max_cached + peak)
        # Undecided rows: nonzero deviation below the screen (BLAS
        # reassociation noise) or NaN peaks (NaN comparisons are False on
        # both screens).  Only these pay for exact ULP distances, which
        # also treat equal-payload NaNs as distance 0.
        deviation = 0.0
        contest_open = np.flatnonzero(~surely_dirty)
        if contest_open.size:
            dist = max_row_ulp_distance(rows[contested[contest_open]],
                                        cached)
            clean = dist <= threshold
            dirty[contested[contest_open[clean]]] = False
            if clean.any():
                deviation = float(dist[clean].max())
        return dirty, deviation

    def _broadcast_cached(self, cached_values: Mapping[str, Array],
                          name: str, count: int) -> Array:
        """A cached input as the batched evaluation of ``name`` sees it.

        Batch-invariant nodes (variables, constants — ``batch_axis is
        None``) are shared by every row and passed through untouched;
        batch-carrying cached values (shape ``(1, ...)``) are broadcast to
        ``count`` rows as a zero-copy view.
        """
        try:
            value = cached_values[name]
        except KeyError:
            raise GraphError(
                f"run_from_batched(): no cached value for node "
                f"'{name}'") from None
        if self.graph.node(name).op.batch_axis is None:
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
        """Replay B independent trials in one batched partial re-execution.

        The batched sibling of :meth:`run_from`: resumes from a **batch-1**
        golden activation cache, but carries a ``(B, ...)``-stacked dirty
        frontier through the fault cone so B trials that share an input pay
        for one executor pass (and one BLAS call per re-evaluated node)
        instead of B.  Cached upstream values are broadcast against the
        stacked frontier (batch-invariant weights pass through untouched —
        see :attr:`~repro.ops.base.Operator.batch_axis`), and every operator
        in the cone is audited against the batch-transparency contract
        (:attr:`~repro.ops.base.Operator.batch_transparent`); a
        batch-coupled operator (training-mode BatchNorm or Dropout, an
        axis-0 concat) raises :class:`GraphError` instead of silently
        entangling trials.

        **Cross-site batches.**  Rows need not share a fault site: with
        ``dirty_row_masks``, each stacked dirty value carries a boolean
        row-membership mask and only the masked rows *enter* the replay at
        that node — the replay then walks the **union cone** of every entry
        node, and per-row dirty tracking confines each row to its own
        site's cone (a row is only ever evaluated at nodes its own dirt
        reached; rows outside a node's cone are implicitly golden there).
        Entry nodes may lie inside each other's cones (nested cones): rows
        entering at a node take their injected value as-is — the
        stacked-dirty-value contract, unchanged — while rows that another
        entry dirtied upstream are re-evaluated *through* the node exactly
        like any other cone member.

        Change propagation is tracked **per row**: a re-evaluated node keeps
        a boolean mask of the rows that still differ from the golden cache,
        rows whose fault was masked are snapped back to their golden values
        and drop out of downstream evaluations (a node re-evaluates only the
        rows whose mask is set), and the pass terminates early once no dirty
        row remains — so a batch whose faults all get squashed costs little
        more than a single masked batch-1 replay.

        Equivalence guarantee: BLAS kernels are not bit-stable across batch
        shapes, so batched rows may differ from their batch-1 replays in the
        last few ULPs.  Under the default ``ULP_TOLERANT`` mode a row counts
        as clean when it is within ``max_ulps`` of the cache, and the result
        reports the maximum deviation consumed by such rows
        (``max_ulp_deviation``).  ``EXACT`` mode uses bit-identity for the
        row masks (threshold 0); it makes the replay itself deterministic
        relative to the cache but cannot turn batched BLAS calls bit-stable,
        which is why campaigns refuse ``EXACT`` for ``batch_trials > 1``.

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
        threshold = 0.0 if mode is EquivalenceMode.EXACT else float(max_ulps)
        feed = dict(feed or {})
        requested = list(outputs) if outputs is not None else list(self.graph.outputs)
        if not requested:
            raise GraphError("graph has no outputs and none were requested")
        missing = [name for name in requested if name not in self.graph]
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
        reeval_seeds = ({dirty} if isinstance(dirty, str) else set(dirty))
        reeval_seeds -= set(overrides)
        seeds = reeval_seeds | set(overrides)
        for name in seeds:
            if name not in self.graph:
                raise GraphError(f"unknown dirty node '{name}'")
        batch_sizes = {value.shape[0] for name, value in overrides.items()
                       if name not in row_masks}
        batch_sizes |= {mask.shape[0] for mask in row_masks.values()}
        if len(batch_sizes) > 1:
            raise GraphError(
                f"stacked dirty values disagree on the batch size: "
                f"{sorted(batch_sizes)}")
        batch = batch_sizes.pop() if batch_sizes else 1
        # Normalized entry frontier: per node, the (B,) membership mask of
        # the rows entering the replay there plus their packed values (one
        # row per set bit, ascending row order).  Homogeneous overrides get
        # an all-rows mask, so the single-site fast path is the masked path
        # with a full mask.
        entry_masks: Dict[str, np.ndarray] = {}
        entry_rows: Dict[str, Array] = {}
        for name, rows in overrides.items():
            mask = row_masks.get(name)
            if mask is None:
                mask = np.ones(batch, dtype=bool)
            elif rows.shape[0] != int(np.count_nonzero(mask)):
                raise GraphError(
                    f"stacked value for '{name}' has {rows.shape[0]} rows "
                    f"but its row mask selects "
                    f"{int(np.count_nonzero(mask))}")
            if not mask.any():
                continue  # no row enters here; nothing to install
            if self.graph.node(name).op.batch_axis is None:
                # Batch-invariant nodes (variables, constants) are shared
                # by every row — assemble_input serves them from the cache,
                # so a stacked override here would be silently ignored.
                # Refuse, matching the re-evaluation path's error.
                raise GraphError(
                    f"run_from_batched(): cannot install stacked dirty "
                    f"values at batch-invariant node '{name}' "
                    f"({type(self.graph.node(name).op).__name__}); use "
                    f"run_from() for weight/constant updates")
            entry_masks[name] = mask
            entry_rows[name] = rows

        cone = self.graph.downstream_union(seeds) if seeds else frozenset()
        needed = self.graph.ancestors(requested)
        recompute = cone & frozenset(needed)
        if batch > 1:
            coupled = [name for name in (set(recompute) | set(overrides))
                       if not self.graph.node(name).op.batch_transparent]
            if coupled:
                ops = {name: type(self.graph.node(name).op).__name__
                       for name in sorted(coupled)}
                raise GraphError(
                    f"run_from_batched(): batch-coupled operators in the "
                    f"replay cone cannot stack independent trials: {ops} "
                    f"(training-mode BatchNorm/Dropout and axis-0 concats "
                    f"violate the batch-transparency contract)")

        # Packed dirty-row representation: per node, a boolean row mask and
        # the packed values of *only* the dirty rows (in row order).  Rows
        # absent from the mask are implicitly golden — masked faults cost
        # nothing downstream, nothing is ever filled with B-row copies of
        # cached activations, and a consumer whose needed rows coincide
        # with an input's dirty rows reuses the packed array with zero
        # copies (the common case inside a batch that shares a fault site).
        dirty_masks: Dict[str, np.ndarray] = {}
        dirty_rows_of: Dict[str, Array] = {}
        recomputed: Set[str] = set()
        rows_evaluated = 0
        max_deviation = 0.0
        nodes_since_mask = 0
        big_checks_skipped = 0

        topo = self.graph.topo_index()

        def influence_horizon(name: str) -> int:
            return max((topo[c] for c in self.graph.successors(name)
                        if c in recompute), default=-1)

        last_dirty_use = -1
        for name, rows in overrides.items():
            cached = cached_values.get(name)
            if cached is not None and np.asarray(cached).shape[1:] != rows.shape[1:]:
                raise GraphError(
                    f"run_from_batched(): stacked value for '{name}' has row "
                    f"shape {rows.shape[1:]}, cache has "
                    f"{np.asarray(cached).shape[1:]}")
        # Entry nodes are installed when the topological walk reaches them
        # (another entry's dirt may flow *through* them first), so the walk
        # must not terminate while entries are still pending.  Entries
        # outside the requested outputs' ancestor set cannot influence any
        # output and are dropped with their rows.
        pending_entries = sum(1 for name in entry_masks if name in recompute)
        pending_seeds = len(reeval_seeds & recompute)

        def assemble_input(name: str, need: np.ndarray,
                           count: int) -> Array:
            """An input's rows for the ``count`` rows a consumer evaluates.

            Clean rows come from the (broadcast) golden cache; dirty rows
            from the packed store.  When the consumer needs exactly the
            input's dirty rows — the common case — the packed array is
            returned as-is, copy-free.
            """
            mask = dirty_masks.get(name)
            if (mask is None
                    or self.graph.node(name).op.batch_axis is None):
                return self._broadcast_cached(cached_values, name, count)
            packed = dirty_rows_of[name]
            if mask is need or np.array_equal(mask, need):
                return packed
            try:
                cached = cached_values[name]
            except KeyError:
                raise GraphError(
                    f"run_from_batched(): no cached value for partially "
                    f"dirty input '{name}'") from None
            cached = np.asarray(cached)
            packed = np.asarray(packed)
            # Fill an empty buffer row-class by row-class instead of
            # materializing a full golden broadcast first and overwriting
            # the dirty rows — every row is written exactly once.  ``need``
            # may exclude rows the input is dirty for (an entry node's own
            # rows are installed, not evaluated), so the dirty scatter
            # takes the mask ∩ need subset of the packed store.
            assembled = np.empty((count,) + cached.shape[1:],
                                 dtype=np.result_type(cached, packed))
            position_of = np.cumsum(need) - 1
            take = mask & need
            assembled[position_of[need & ~mask]] = cached
            if take.any():
                rows = (packed if np.array_equal(take, mask)
                        else packed[take[mask]])
                assembled[position_of[take]] = rows
            return assembled

        for name in sorted(recompute, key=topo.__getitem__):
            if (not pending_seeds and not pending_entries
                    and topo[name] > last_dirty_use):
                break  # no remaining node can see a dirty row
            node = self.graph.node(name)
            is_seed = name in reeval_seeds
            entry = entry_masks.get(name)
            if is_seed:
                need = np.ones(batch, dtype=bool)
            else:
                input_masks = [dirty_masks[inp] for inp in node.inputs
                               if inp in dirty_masks]
                if len(input_masks) == 1:
                    # Borrowed, treated read-only (the single-input chain is
                    # the hot case; assemble_input's identity fast path
                    # makes it copy-free end to end).
                    need = input_masks[0]
                elif input_masks:
                    need = np.logical_or.reduce(input_masks)
                else:
                    need = None
            if entry is not None:
                pending_entries -= 1
                # Rows entering here take their injected value as-is (the
                # stacked-dirty-value contract: it is a final, already
                # policy-processed activation); only rows that *another*
                # entry dirtied upstream re-evaluate through this node.
                need = None if need is None else need & ~entry
            if need is None or not need.any():
                if entry is None:
                    continue  # every input row is clean: the cache stands
                dirty_masks[name] = entry
                dirty_rows_of[name] = entry_rows[name]
                last_dirty_use = max(last_dirty_use, influence_horizon(name))
                continue
            if node.op.batch_axis is None:
                raise GraphError(
                    f"run_from_batched(): cannot re-evaluate batch-invariant "
                    f"node '{name}' ({type(node.op).__name__}) in a batched "
                    f"replay; use run_from() for weight/constant updates")
            cached = cached_values.get(name)
            need_idx = np.flatnonzero(need)
            count = len(need_idx)
            if isinstance(node.op, Placeholder):
                if name not in feed:
                    raise GraphError(
                        f"placeholder '{name}' is dirty but no value was fed")
                fed = np.asarray(feed[name], dtype=np.float64)
                if fed.shape[0] == 1:
                    fed = np.broadcast_to(fed, (batch,) + fed.shape[1:])
                elif fed.shape[0] != batch:
                    raise GraphError(
                        f"fed value for dirty placeholder '{name}' has "
                        f"{fed.shape[0]} rows; expected 1 or {batch}")
                out = np.array(fed[need_idx], dtype=np.float64)
            else:
                try:
                    args = [assemble_input(inp, need, count)
                            for inp in node.inputs]
                except KeyError as exc:  # pragma: no cover - defensive
                    raise GraphError(
                        f"run_from_batched(): no cached value for input "
                        f"{exc} of node '{name}'") from None
                out = node.op.forward(*args)
            out = self._evaluate(node, out)
            rows_evaluated += count
            recomputed.add(name)
            if is_seed:
                pending_seeds -= 1
            out_arr = np.asarray(out)
            out_elements = out_arr.size // count if count else 0
            checked_big = False
            if cached is None:
                # Without a golden value there is nothing to snap clean
                # rows back to: keep every evaluated row dirty.
                dirty = np.ones(count, dtype=bool)
            elif out_elements < DIVERGENCE_CHECK_MIN_ELEMENTS:
                # Small outputs: one exact-equality comparison still
                # terminates masked rows but skips the screening machinery
                # — a conservative subset of _row_divergence (a row within
                # ULP tolerance but not bit-equal simply stays dirty,
                # carrying its exact value; under fixed-point policies
                # masked rows are bit-equal anyway).
                cached_arr = np.asarray(cached)
                if (cached_arr.dtype == out_arr.dtype
                        and cached_arr.shape[1:] == out_arr.shape[1:]):
                    dirty = ~(out_arr == cached_arr).reshape(
                        count, -1).all(axis=1)
                else:
                    dirty = np.ones(count, dtype=bool)
            elif (nodes_since_mask > DIVERGENCE_BACKOFF_NODES
                    and big_checks_skipped + 1 < DIVERGENCE_BACKOFF_STRIDE):
                # Backed off (see DIVERGENCE_BACKOFF_NODES): nothing has
                # masked in a while, so skip the bandwidth-bound screen and
                # keep the rows dirty with their exact values.
                big_checks_skipped += 1
                dirty = np.ones(count, dtype=bool)
            else:
                checked_big = True
                big_checks_skipped = 0
                dirty, deviation = self._row_divergence(out, cached,
                                                        threshold)
                max_deviation = max(max_deviation, deviation)
            if cached is not None and (checked_big
                                       or out_elements
                                       < DIVERGENCE_CHECK_MIN_ELEMENTS):
                nodes_since_mask = 0 if dirty.shape[0] > int(dirty.sum()) \
                    else nodes_since_mask + 1
            if entry is not None:
                # Merge the injected entry rows with the re-evaluated ones
                # (ascending row order, like every packed store).
                packed_entry = np.asarray(entry_rows[name])
                final_mask = entry.copy()
                final_mask[need_idx[dirty]] = True
                out = np.asarray(out)
                combined = np.empty(
                    (int(np.count_nonzero(final_mask)),) + out.shape[1:],
                    dtype=np.result_type(packed_entry, out))
                position_of = np.cumsum(final_mask) - 1
                combined[position_of[entry]] = packed_entry
                combined[position_of[need_idx[dirty]]] = out[dirty]
                dirty_masks[name] = final_mask
                dirty_rows_of[name] = combined
                last_dirty_use = max(last_dirty_use, influence_horizon(name))
            elif dirty.any():
                mask = np.zeros(batch, dtype=bool)
                mask[need_idx[dirty]] = True
                dirty_masks[name] = mask
                # Evaluated arrays are never written after this point, so
                # when every row survives the output is stored uncopied.
                out = np.asarray(out)
                dirty_rows_of[name] = out if dirty.all() else out[dirty]
                last_dirty_use = max(last_dirty_use, influence_horizon(name))
            else:
                dirty_masks.pop(name, None)
                dirty_rows_of.pop(name, None)

        results: Dict[str, Array] = {}
        for name in requested:
            mask = dirty_masks.get(name)
            if mask is None:
                results[name] = np.array(self._broadcast_cached(
                    cached_values, name, batch))
                continue
            packed = dirty_rows_of[name]
            if mask.all():
                results[name] = np.ascontiguousarray(packed)
                continue
            try:
                cached = np.asarray(cached_values[name])
            except KeyError:
                raise GraphError(
                    f"run_from_batched(): requested output '{name}' has "
                    f"clean rows but no cached value to serve them "
                    f"from") from None
            full = np.array(np.broadcast_to(cached,
                                            (batch,) + cached.shape[1:]))
            full[mask] = packed
            results[name] = full
        return BatchedExecutionResult(outputs=results, recomputed=recomputed,
                                      rows_evaluated=rows_evaluated,
                                      max_ulp_deviation=max_deviation)

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
    """Flip the ``training`` flag on every operator that has one."""
    for node in graph:
        if hasattr(node.op, "training"):
            node.op.training = training
