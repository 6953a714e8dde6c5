"""Fault injector: corrupts one operator output during one inference.

This is the reproduction's TensorFI analogue.  The injector

1. profiles the graph once to learn every injectable node's output size (the
   "state space" of each operator),
2. samples injection sites with probability proportional to that state space
   (a random transient fault is more likely to land in a larger tensor), and
3. installs an executor output hook that applies the configured
   :class:`~repro.injection.fault_models.FaultModel` at the chosen site(s)
   during the next forward pass.

The last fully-connected layer (and everything downstream of it) is excluded
from injection by default, mirroring the paper's setup: faults there are
directly output-coupled and the paper protects that layer by duplication
instead (its state space is a negligible fraction of the total).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from ..graph import (BatchedExecutionResult, ExecutionResult, Executor,
                     Graph, Node)
from ..graph.equivalence import DEFAULT_MAX_ULPS, EquivalenceMode
from ..models.base import Model
from .fault_models import FaultModel, FaultSpec


class InjectionError(RuntimeError):
    """Raised when the injector cannot find a legal injection site."""


def downstream_nodes(graph: Graph, start: str) -> Set[str]:
    """All nodes reachable from ``start`` (including ``start`` itself).

    Thin wrapper over :meth:`Graph.downstream`, kept for backwards
    compatibility; the old O(N^2) fixpoint here is gone — the graph now
    maintains forward adjacency and answers cone queries in O(V+E).
    """
    return graph.downstream(start)


def last_layer_exclusions(model: Model) -> Set[str]:
    """Nodes excluded from injection for a model: the last FC layer onward.

    The logits node marks the output of the final fully-connected layer; we
    exclude that node's layer (its matmul and bias-add) plus everything
    downstream (softmax / output heads), matching the paper's "we exclude the
    last FC layer" policy.
    """
    graph = model.graph
    excluded = downstream_nodes(graph, model.logits_name)
    # Walk back over the bias-add / matmul pair that produced the logits so
    # the whole final layer is excluded, not just its output node.
    frontier = [model.logits_name]
    while frontier:
        name = frontier.pop()
        node = graph.node(name)
        if type(node.op).__name__ in ("BiasAdd", "MatMul", "Identity"):
            excluded.add(name)
            frontier.extend(node.inputs)
    return excluded


@dataclass
class InjectionPlan:
    """A concrete set of (node, element, ...) sites chosen for one trial.

    ``bit_ranges``, when present, aligns with ``sites`` and restricts the
    bit position the fault model may flip at that site to ``[low, high)``
    — the stratum-conditional plans importance-sampled campaigns draw
    (see :mod:`repro.injection.sampling`).  ``None`` (the default, and the
    per-entry value for unrestricted sites) keeps the fault model's full
    bit range, which is byte-compatible with every pre-existing plan.
    """

    sites: List[Tuple[str, int]]
    bit_ranges: Optional[List[Optional[Tuple[int, int]]]] = None

    def __post_init__(self) -> None:
        if (self.bit_ranges is not None
                and len(self.bit_ranges) != len(self.sites)):
            raise ValueError(
                f"bit_ranges must align with sites: got {len(self.bit_ranges)}"
                f" ranges for {len(self.sites)} sites")

    def node_names(self) -> Set[str]:
        return {name for name, _ in self.sites}

    def site_items(self) -> List[Tuple[str, int, Optional[Tuple[int, int]]]]:
        """``(node, element, bit_range_or_None)`` triples, in site order."""
        ranges = self.bit_ranges or [None] * len(self.sites)
        return [(name, element, band)
                for (name, element), band in zip(self.sites, ranges)]

    # -- serialization (worker fan-out) -----------------------------------

    def to_payload(self) -> List[Tuple[str, int]]:
        """A plain-tuple form of the plan for cross-process transfer.

        Multiprocess campaigns ship thousands of plans to worker processes;
        sending bare ``(node, element)`` tuples keeps the pickled campaign
        spec small and independent of this class's layout.  Bit-banded
        sites travel as ``(node, element, low, high)`` 4-tuples; plain
        sites keep the legacy 2-tuple shape, so unstratified payloads are
        byte-identical to previous releases.
        """
        out: List[Tuple] = []
        for name, element, band in self.site_items():
            if band is None:
                out.append((str(name), int(element)))
            else:
                out.append((str(name), int(element),
                            int(band[0]), int(band[1])))
        return out

    @classmethod
    def from_payload(cls, payload: Sequence[Tuple]) -> "InjectionPlan":
        """Rebuild a plan from :meth:`to_payload` output."""
        sites: List[Tuple[str, int]] = []
        bands: List[Optional[Tuple[int, int]]] = []
        for entry in payload:
            sites.append((entry[0], int(entry[1])))
            bands.append((int(entry[2]), int(entry[3]))
                         if len(entry) == 4 else None)
        return cls(sites=sites,
                   bit_ranges=bands if any(b is not None for b in bands)
                   else None)


class FaultInjector:
    """Samples injection sites and applies faults through executor hooks.

    Parameters
    ----------
    model:
        The model under test (its graph defines the injectable state space).
    fault_model:
        The corruption to apply at each chosen site.
    exclude_nodes:
        Extra node names to exclude.  The last-FC-layer exclusion is always
        applied; pass ``exclude_last_layer=False`` to disable it.
    include_categories:
        Node categories eligible for injection.  Defaults to every
        computational category (compute, activation, pooling, reshape,
        concat, normalization).  Protection nodes inserted by Ranger are
        *never* injected: Ranger corrects faults that occur in the
        computation it guards; faults inside the tiny comparison operators
        themselves are outside the paper's fault model.
    """

    DEFAULT_CATEGORIES = {"compute", "activation", "pooling", "reshape",
                          "concat", "normalization"}

    def __init__(self, model: Model, fault_model: FaultModel,
                 exclude_nodes: Optional[Set[str]] = None,
                 include_categories: Optional[Set[str]] = None,
                 exclude_last_layer: bool = True,
                 seed: int = 0) -> None:
        self.model = model
        self.fault_model = fault_model
        self.rng = np.random.default_rng(seed)
        self.include_categories = set(include_categories
                                      or self.DEFAULT_CATEGORIES)
        excluded = set(exclude_nodes or ())
        if exclude_last_layer:
            excluded |= last_layer_exclusions(model)
        self.excluded_nodes = excluded
        self._site_sizes: Optional[Dict[str, int]] = None

    # -- state-space profiling ---------------------------------------------------

    def profile_state_space(self, sample_input: np.ndarray,
                            executor: Optional[Executor] = None) -> Dict[str, int]:
        """Measure each injectable node's output element count.

        ``sample_input`` must be a single-example batch (shape ``(1, ...)``)
        so the recorded sizes correspond to one inference.
        """
        ex = executor or self.model.executor()
        sizes: Dict[str, int] = {}

        def observer(node: Node, output: np.ndarray) -> None:
            if self._is_injectable(node):
                sizes[node.name] = int(np.asarray(output).size)

        ex.add_observer(observer)
        try:
            ex.run({self.model.input_name: sample_input},
                   outputs=[self.model.output_name])
        finally:
            ex.remove_observer(observer)
        if not sizes:
            raise InjectionError("no injectable nodes found in the graph")
        self._site_sizes = sizes
        return dict(sizes)

    def _is_injectable(self, node: Node) -> bool:
        return (node.injectable
                and node.category in self.include_categories
                and node.name not in self.excluded_nodes)

    @property
    def state_space_size(self) -> int:
        """Total number of injectable values per inference."""
        if self._site_sizes is None:
            raise InjectionError("call profile_state_space() first")
        return int(sum(self._site_sizes.values()))

    # -- site sampling --------------------------------------------------------------

    def sample_plan(self) -> InjectionPlan:
        """Choose the (node, element) sites for one fault event.

        Nodes are chosen with probability proportional to their output size so
        that every value in the injectable state space is equally likely to be
        hit, which is the paper's random-fault assumption.
        """
        return self.sample_plans(1)[0]

    def sample_plans(self, count: int,
                     rng: Optional[np.random.Generator] = None,
                     nodes: Optional[Sequence[str]] = None,
                     bit_range: Optional[Tuple[int, int]] = None,
                     ) -> List[InjectionPlan]:
        """Sample the fault sites for ``count`` trials in one vectorized draw.

        All node choices and element indices for the whole campaign come from
        a single ``rng.choice`` / ``rng.integers`` call each, instead of a
        Python loop per site.

        ``rng``, ``nodes`` and ``bit_range`` support stratum-conditional
        sampling (:mod:`repro.injection.sampling`): ``rng`` overrides the
        injector's shared stream (each stratum keeps its own index-keyed
        stream so allocations can grow without re-randomizing earlier
        draws), ``nodes`` restricts the draw to a subset of injectable
        nodes (still size-proportional *within* the subset, i.e. uniform
        over that stratum's values), and ``bit_range`` stamps every sampled
        site with a ``[low, high)`` bit band.  Defaults reproduce the
        unconditional draw bit-for-bit.
        """
        if self._site_sizes is None:
            raise InjectionError("call profile_state_space() first")
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return []
        gen = rng if rng is not None else self.rng
        if nodes is None:
            names = list(self._site_sizes.keys())
        else:
            names = [n for n in nodes if n in self._site_sizes]
            if not names:
                raise InjectionError(
                    f"none of the requested nodes are injectable: "
                    f"{sorted(nodes)}")
        sizes = np.array([self._site_sizes[n] for n in names], dtype=np.float64)
        probs = sizes / sizes.sum()
        per_event = self.fault_model.sites_per_event
        total = count * per_event
        node_idx = gen.choice(len(names), size=total, p=probs)
        elements = gen.integers(sizes[node_idx].astype(np.int64))
        sites = [(names[int(n)], int(e)) for n, e in zip(node_idx, elements)]
        bands = (None if bit_range is None
                 else [(int(bit_range[0]), int(bit_range[1]))] * per_event)
        return [InjectionPlan(sites=sites[i * per_event:(i + 1) * per_event],
                              bit_ranges=list(bands) if bands else None)
                for i in range(count)]

    # -- injection -------------------------------------------------------------------

    @staticmethod
    def _group_sites(plan: InjectionPlan
                     ) -> Dict[str, List[Tuple[int, Optional[Tuple[int, int]]]]]:
        """Group a plan's sites by node as ``(element, bit_band)`` items.

        The band is ``None`` for unrestricted sites; the corruption inner
        loops dispatch on it so banded and plain sites share one code path.
        """
        pending: Dict[str, List[Tuple[int, Optional[Tuple[int, int]]]]] = {}
        for node_name, element, band in plan.site_items():
            pending.setdefault(node_name, []).append((element, band))
        return pending

    def _corrupt_value(self, original: float, band: Optional[Tuple[int, int]],
                       rng: np.random.Generator
                       ) -> Tuple[float, Optional[int]]:
        """One fault-model draw, band-restricted when the site carries one."""
        if band is None:
            return self.fault_model.corrupt(original, rng)
        return self.fault_model.corrupt_in_band(original, rng,
                                                band[0], band[1])

    def _corrupt_flat(self, node_name: str, flat: np.ndarray,
                      elements: Sequence[Tuple[int, Optional[Tuple[int, int]]]],
                      applied: List[FaultSpec],
                      rng: np.random.Generator) -> None:
        """Corrupt ``elements`` of one flattened activation *in place*.

        The single corruption inner loop shared by every injection entry
        point (full runs, cached replays and batched stacks), so the
        semantics — element wrapping, RNG consumption order, fault-record
        contents — cannot drift between them.  ``elements`` holds the
        ``(element, bit_band)`` items produced by :meth:`_group_sites`.
        """
        for element, band in elements:
            index = element % flat.size
            original = float(flat[index])
            new_value, bit = self._corrupt_value(original, band, rng)
            flat[index] = new_value
            applied.append(FaultSpec(node_name=node_name,
                                     element_index=index, bit=bit,
                                     original=original,
                                     corrupted=new_value))

    def _corrupt_array(self, node_name: str, output: np.ndarray,
                       elements: Sequence[int],
                       applied: List[FaultSpec],
                       rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Apply the fault model to ``elements`` of one node's output.

        Appends one :class:`FaultSpec` per landed corruption to ``applied``
        and returns the corrupted copy.  ``rng`` overrides the injector's
        shared stream; campaigns pass a per-trial generator so a trial's
        corruption bits depend only on the campaign seed and the trial
        index, never on which process (or in which order) the trial runs.
        """
        rng = rng if rng is not None else self.rng
        corrupted = np.array(output, dtype=np.float64, copy=True)
        self._corrupt_flat(node_name, corrupted.reshape(-1), elements,
                           applied, rng)
        return corrupted

    def _corruption_hook(self, plan: InjectionPlan,
                         rng: Optional[np.random.Generator] = None,
                         ) -> Tuple[Callable, List[FaultSpec]]:
        """Build the executor output hook that applies ``plan``.

        Returns the hook together with the (initially empty) list it appends
        a :class:`FaultSpec` to for every corruption it lands.
        """
        pending = self._group_sites(plan)
        applied: List[FaultSpec] = []

        def hook(node: Node, output: np.ndarray) -> np.ndarray:
            if node.name not in pending:
                return output
            return self._corrupt_array(node.name, output, pending[node.name],
                                       applied, rng=rng)

        return hook, applied

    def inject(self, executor: Executor, inputs: np.ndarray,
               plan: Optional[InjectionPlan] = None,
               rng: Optional[np.random.Generator] = None,
               ) -> Tuple[np.ndarray, List[FaultSpec]]:
        """Run one faulty inference and return (output, applied faults).

        The executor should belong to the same (or an equivalently-named)
        graph; Ranger-protected graphs keep original node names, so a plan
        sampled on the unprotected model can be replayed on the protected one
        — that is exactly how the with/without-Ranger comparison keeps the
        fault sequence identical.
        """
        result, applied = self.inject_full(executor, inputs, plan, rng=rng)
        return result.output(self.model.output_name), applied

    def inject_full(self, executor: Executor, inputs: np.ndarray,
                    plan: Optional[InjectionPlan] = None,
                    rng: Optional[np.random.Generator] = None):
        """Like :meth:`inject` but also returns every node's (faulty) output.

        Detection-style baselines (symptom detectors, ABFT checksums) need to
        inspect intermediate values of the faulty execution; this variant
        returns ``(ExecutionResult, applied_faults)`` so they can.
        """
        plan = plan or self.sample_plan()
        hook, applied = self._corruption_hook(plan, rng=rng)
        executor.add_output_hook(hook)
        try:
            result = executor.run({self.model.input_name: inputs},
                                  outputs=[self.model.output_name])
        finally:
            executor.remove_output_hook(hook)
        return result, applied

    def sites_overlap(self, names: Iterable[str],
                      graph: Optional[Graph] = None) -> bool:
        """True when one of ``names`` lies in another's downstream cone.

        The overlap verdict depends only on the node *set* (never on the
        element indices), so callers that screen many plans memoize this
        per ``frozenset`` of names — see
        :meth:`FaultInjectionCampaign.pack_batches`.
        """
        graph = graph if graph is not None else self.model.graph
        names = sorted(set(names))
        return len(names) > 1 and any(
            other in graph.downstream(name)
            for name in names for other in names if other != name)

    def plan_sites_overlap(self, plan: InjectionPlan,
                           graph: Optional[Graph] = None) -> bool:
        """True when one of the plan's sites lies in another site's cone.

        Such plans must be replayed hook-based (the downstream site's
        corruption lands on the *faulty* value flowing through it), so they
        are ineligible for the stacked-golden-corruption fast paths
        (:meth:`inject_cached`'s dirty-value branch and
        :meth:`inject_cached_batch`).
        """
        return self.sites_overlap(plan.node_names(), graph)

    def inject_cached(self, executor: Executor,
                      cached_values: Mapping[str, np.ndarray],
                      plan: Optional[InjectionPlan] = None,
                      rng: Optional[np.random.Generator] = None,
                      ) -> Tuple[np.ndarray, List[FaultSpec], ExecutionResult]:
        """Replay one faulty inference by partial re-execution.

        ``cached_values`` is the activation cache of a fault-free run of the
        same input on the same executor (``result.values``).  Only the
        downstream cone of the fault sites is re-evaluated — the upstream
        prefix is bit-identical to the golden run by construction, so the
        returned output is bit-identical to what :meth:`inject` would
        produce for the same plan and RNG state, at a fraction of the cost.

        Returns ``(output, applied_faults, execution_result)``; the result's
        ``recomputed`` field says how much of the graph was re-evaluated.
        """
        plan = plan or self.sample_plan()
        pending = self._group_sites(plan)
        topo_index = executor.graph.topo_index()
        missing = [name for name in pending if name not in topo_index]
        if missing:
            raise InjectionError(
                f"plan sites not present in executor graph: {missing}")
        names = sorted(pending, key=topo_index.__getitem__)

        # When one fault site lies in another site's downstream cone, the
        # later site must be corrupted on top of the *faulty* value it
        # produces during the replay (exactly as in a full run), not on top
        # of its golden cached value.  Replay such plans hook-based: every
        # site is a re-evaluation seed and the corruption hook fires in
        # topological order, just like the full path.
        if self.plan_sites_overlap(plan, executor.graph):
            hook, applied = self._corruption_hook(plan, rng=rng)
            executor.add_output_hook(hook)
            try:
                result = executor.run_from(cached_values, dirty=names,
                                           outputs=[self.model.output_name])
            finally:
                executor.remove_output_hook(hook)
            return result.output(self.model.output_name), applied, result

        # Independent sites: corrupt the *cached* outputs directly — they are
        # the post-dtype-policy values the corruption hook would receive
        # during a full run, so the fault nodes' forward passes need not be
        # paid for again.  Corruption happens in topological order so the
        # fault model's RNG is consumed exactly as in a full faulty run.
        applied: List[FaultSpec] = []
        dirty_values: Dict[str, np.ndarray] = {}
        for name in names:
            try:
                cached = cached_values[name]
            except KeyError:
                raise InjectionError(
                    f"no cached activation for fault site '{name}'; pass the "
                    f"values of a fault-free run of the same input") from None
            dirty_values[name] = self._corrupt_array(name, cached,
                                                     pending[name], applied,
                                                     rng=rng)
        result = executor.run_from(cached_values, dirty_values=dirty_values,
                                   outputs=[self.model.output_name])
        return result.output(self.model.output_name), applied, result

    def inject_cached_batch(self, executor: Executor,
                            cached_values: Mapping[str, np.ndarray],
                            plans: Sequence[InjectionPlan],
                            rngs: Sequence[np.random.Generator],
                            equivalence=None,
                            max_ulps: float = DEFAULT_MAX_ULPS,
                            validate_overlap: bool = True,
                            ) -> Tuple[np.ndarray, List[List[FaultSpec]],
                                       BatchedExecutionResult]:
        """Replay B faulty trials sharing one input in a single batched pass.

        ``plans[i]`` is corrupted with ``rngs[i]`` — each trial keeps its own
        generator, so trial identity (which bits flip where) is exactly what
        :meth:`inject_cached` would produce for the same ``(plan, rng)``
        pair, and campaign-level determinism (``workers=N`` sharding,
        paired comparisons) is unaffected by batching.  Corruption is
        applied to the *golden cached* activations (every site is corrupted
        on top of its batch-1 golden value, per trial, in topological site
        order), and propagated through the replay by
        :meth:`Executor.run_from_batched`.

        Plans need **not** share a fault-node set: each trial's corrupted
        activations enter the replay at that trial's own sites (per-node
        row-membership masks), and the executor walks the union cone of
        every site in the batch with per-row dirty tracking — a row is only
        ever evaluated inside its own sites' cone, so heterogeneous
        batches cost no extra row evaluations, only the union's walk.
        Disjoint and nested cones are both fine; what stays rejected is
        overlap *within* one plan (one of a trial's sites inside another of
        the same trial's cones), because that trial's later corruption must
        land on the faulty value flowing through it — the campaign
        scheduler screens such plans out, falls back to
        :meth:`inject_cached`, and passes ``validate_overlap=False`` so
        already-screened plans skip the duplicate check.

        The applied-fault records are bit-identical to the incremental
        path's; only the downstream propagation may differ from batch-1
        replay in the last ULPs (see the executor's equivalence contract),
        which is why the returned outputs carry the ``ULP_TOLERANT``
        guarantee rather than bit-exactness.

        Returns ``(stacked_outputs, per_trial_faults, batched_result)``
        where ``stacked_outputs[i]`` is trial ``i``'s faulty output row.
        """
        if len(plans) != len(rngs):
            raise InjectionError(
                f"got {len(plans)} plans but {len(rngs)} rngs; each trial "
                f"needs its own generator")
        if not plans:
            raise InjectionError("inject_cached_batch() requires >= 1 plan")
        topo_index = executor.graph.topo_index()
        union_nodes = {name for plan in plans for name in plan.node_names()}
        missing = [name for name in union_nodes if name not in topo_index]
        if missing:
            raise InjectionError(
                f"plan sites not present in executor graph: {sorted(missing)}")
        if validate_overlap:
            for plan in plans:
                if self.plan_sites_overlap(plan, executor.graph):
                    raise InjectionError(
                        f"plan with overlapping sites {plan.sites} cannot "
                        f"be replayed batched; use inject_cached() for it")

        batch = len(plans)
        for name in union_nodes:
            if name not in cached_values:
                raise InjectionError(
                    f"no cached activation for fault site '{name}'; pass the "
                    f"values of a fault-free run of the same input")

        # Packed per-site corruption stacks: a node's stack holds one
        # corrupted row per trial whose plan includes it (ascending trial
        # order), and the membership mask makes exactly those rows the
        # node's replay entries.  Trials without the site are implicitly
        # golden there, so nothing is ever filled with golden copies just
        # to ride along.  Stacks are bulk-replicated from the golden cache
        # once and corrupted *in place*, so each member row is written
        # once instead of copy-then-restack.
        pendings = [self._group_sites(plan) for plan in plans]
        member_rows: Dict[str, List[int]] = {}
        for row, pending in enumerate(pendings):
            for name in pending:
                member_rows.setdefault(name, []).append(row)

        stacked: Dict[str, np.ndarray] = {}
        slot_of: Dict[str, Dict[int, int]] = {}
        for name, rows in member_rows.items():
            cached = np.asarray(cached_values[name], dtype=np.float64)
            stacked[name] = np.repeat(cached, len(rows), axis=0)
            slot_of[name] = {row: slot for slot, row in enumerate(rows)}

        per_trial_faults: List[List[FaultSpec]] = []
        for row, (pending, rng) in enumerate(zip(pendings, rngs)):
            applied: List[FaultSpec] = []
            # Topological site order, exactly like the batch-1 replay, so
            # each trial consumes its generator identically either way.
            for name in sorted(pending, key=topo_index.__getitem__):
                flat = stacked[name][slot_of[name][row]].reshape(-1)
                self._corrupt_flat(name, flat, pending[name], applied, rng)
            per_trial_faults.append(applied)

        masks: Dict[str, np.ndarray] = {}
        for name, rows in member_rows.items():
            mask = np.zeros(batch, dtype=bool)
            mask[rows] = True
            masks[name] = mask

        result = executor.run_from_batched(
            cached_values, stacked_dirty_values=stacked,
            dirty_row_masks=masks,
            outputs=[self.model.output_name], equivalence=equivalence,
            max_ulps=max_ulps)
        return (result.output(self.model.output_name), per_trial_faults,
                result)
