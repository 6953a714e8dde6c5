"""Dataflow graph: nodes, topological ordering, and graph duplication.

The graph mimics a TensorFlow-1.x static graph in the two ways that matter
for the Ranger reproduction:

* **Append-only structure.**  Existing nodes are never mutated; protection is
  applied by *duplicating* the graph and rewiring inputs through an
  ``input_map`` (the paper uses ``tf.import_graph_def`` with ``input_map`` for
  exactly this purpose).
* **Named operator nodes.**  Every node has a unique name and an operator
  category, which is what the fault injector uses to enumerate injection
  sites and what Algorithm 1 uses to pick the layers to bound.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    NamedTuple, Optional, Sequence, Set, Tuple, Union)

import numpy as np

from ..ops.base import Array, Operator, Placeholder, Variable
from ..ops.conv import Conv2D
from ..ops.pooling import AvgPool2D, MaxPool2D

#: Most replay schedules (:meth:`Graph.cone_schedule`) one graph keeps;
#: the least recently used is dropped past it.  A campaign needs one per
#: fault site (bit-exact replay) plus one per distinct cross-site batch
#: (batched replay), and a long served campaign meets new batches in every
#: wave; the zoo's largest models have under 100 fault sites.
SCHEDULE_MEMO_LIMIT = 512

#: Most union cones (:meth:`Graph.downstream_union`) one graph keeps, for
#: the same reason: the batch packer asks for one per candidate batch.
UNION_MEMO_LIMIT = 4096


class GraphError(RuntimeError):
    """Raised for structural problems: duplicate names, cycles, bad wiring."""


@dataclass(frozen=True)
class Node:
    """A single named operator in the graph.

    Attributes
    ----------
    name:
        Unique node name, e.g. ``"conv1/relu"``.
    op:
        The :class:`~repro.ops.base.Operator` instance evaluated at this node.
    inputs:
        Names of the nodes whose outputs feed this operator, in positional
        order.
    """

    name: str
    op: Operator
    inputs: Tuple[str, ...] = ()

    @property
    def category(self) -> str:
        return self.op.category

    @property
    def injectable(self) -> bool:
        return self.op.injectable


class ConeStep(NamedTuple):
    """One node of a :class:`ConeSchedule`, with everything the replay
    loop would otherwise look up on the node per call."""

    node: Node
    #: The node's topological position.
    position: int
    #: Inputs whose last reader inside the cone is this node (requested
    #: outputs excepted): their dirty rows are dead once it has run.
    releases: Tuple[str, ...]
    #: Topological position of this node's last reader inside the cone;
    #: a dirty value here can influence nothing past it (-1: no reader).
    horizon: int
    inputs: Tuple[str, ...]
    is_conv: bool
    is_placeholder: bool
    #: Variables and constants (``batch_axis is None``): every row shares
    #: their cached value, so a replay never re-evaluates them.
    batch_invariant: bool
    #: The operator's pointwise contract
    #: (:attr:`~repro.ops.base.Operator.pointwise`).
    pointwise: bool
    #: Max or average pooling: windowed replay maps a box through its
    #: window geometry.
    is_pool: bool


@dataclass(frozen=True)
class ConeSchedule:
    """The structure of one replay, independent of the values replayed.

    Attributes
    ----------
    steps:
        One :class:`ConeStep` for every node of the seeds' downstream
        cone that the requested outputs depend on, in topological order.
    members:
        The names of the scheduled nodes.
    """

    steps: Tuple[ConeStep, ...]
    members: frozenset


class Graph:
    """An append-only dataflow graph of named operator nodes."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._order: List[str] = []
        self.outputs: List[str] = []
        #: Forward adjacency, maintained incrementally by :meth:`add` (the
        #: graph is append-only, so it never needs invalidation).  This is
        #: what makes the cone queries below O(V+E) instead of the old
        #: O(N^2) consumer scans.
        self._succ: Dict[str, List[str]] = {}
        #: Per-node cone memos; cleared whenever a node is added (an append
        #: can extend existing cones).  Campaign graphs are static, so the
        #: per-trial cone queries all hit these.
        self._downstream_memo: Dict[str, Set[str]] = {}
        self._ancestors_memo: Dict[str, Set[str]] = {}
        #: Union-cone memo keyed by frozenset of start names; the batched
        #: campaign packer asks for the same unions once per (fault-node
        #: set, batch) combination, so these are hit constantly at scale.
        #: Least recently used first, at most :data:`UNION_MEMO_LIMIT`.
        self._union_memo: "OrderedDict[frozenset, frozenset]" = OrderedDict()
        #: Replay schedules keyed by (seed set, requested outputs); see
        #: :meth:`cone_schedule`.  Least recently used first, at most
        #: :data:`SCHEDULE_MEMO_LIMIT`.
        self._schedule_memo: "OrderedDict[Tuple[frozenset, Tuple[str, ...]], ConeSchedule]" = OrderedDict()
        self._topo_index: Optional[Dict[str, int]] = None

    # -- pickling ----------------------------------------------------------

    def __getstate__(self):
        """Pickle the graph without its derived query memos.

        The memos are pure caches over the (append-only) structure, but
        they fill lazily with use — pickling them would make a graph's
        byte representation depend on its *query history*, breaking every
        content fingerprint built on it (worker campaign caches, the
        campaign service's artifact keys), and would ship redundant cone
        sets to worker processes.  Dropping them costs one lazy rebuild on
        the unpickled copy.
        """
        state = dict(self.__dict__)
        state["_downstream_memo"] = {}
        state["_ancestors_memo"] = {}
        state["_union_memo"] = {}
        state["_schedule_memo"] = {}
        state["_topo_index"] = None
        return state

    def __setstate__(self, state) -> None:
        """Restore the pickled fields and fresh (LRU-ordered) memos.
        Attribute names are interned, as the default restore does: a
        re-pickled graph must give the same bytes."""
        for key, value in state.items():
            setattr(self, sys.intern(key), value)
        self._union_memo = OrderedDict()
        self._schedule_memo = OrderedDict()

    # -- construction ------------------------------------------------------

    def add(self, name: str, op: Operator,
            inputs: Sequence[str] = ()) -> str:
        """Add a node and return its name.

        Raises :class:`GraphError` if the name already exists or any input
        refers to a node that has not been added yet (the graph is built in
        topological order by construction).
        """
        if name in self._nodes:
            raise GraphError(f"node '{name}' already exists in graph '{self.name}'")
        for inp in inputs:
            if inp not in self._nodes:
                raise GraphError(
                    f"node '{name}' references unknown input '{inp}'")
        node = Node(name=name, op=op, inputs=tuple(inputs))
        self._nodes[name] = node
        self._order.append(name)
        self._succ[name] = []
        for inp in node.inputs:
            self._succ[inp].append(name)
        if self._downstream_memo:
            self._downstream_memo.clear()
        if self._ancestors_memo:
            self._ancestors_memo.clear()
        if self._union_memo:
            self._union_memo.clear()
        if self._schedule_memo:
            self._schedule_memo.clear()
        self._topo_index = None
        return name

    def unique_name(self, base: str) -> str:
        """Return ``base`` or ``base_<k>`` such that the name is unused."""
        if base not in self._nodes:
            return base
        k = 1
        while f"{base}_{k}" in self._nodes:
            k += 1
        return f"{base}_{k}"

    def mark_output(self, name: str) -> None:
        if name not in self._nodes:
            raise GraphError(f"cannot mark unknown node '{name}' as output")
        if name not in self.outputs:
            self.outputs.append(name)

    # -- access ------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return (self._nodes[n] for n in self._order)

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"unknown node '{name}'") from None

    def nodes(self) -> List[Node]:
        """All nodes in insertion (topological) order."""
        return [self._nodes[n] for n in self._order]

    def topological_order(self) -> List[str]:
        return list(self._order)

    def topo_index(self) -> Mapping[str, int]:
        """Node name → position in topological order (memoized)."""
        if self._topo_index is None:
            self._topo_index = {name: i for i, name in enumerate(self._order)}
        return self._topo_index

    def placeholders(self) -> List[Node]:
        return [n for n in self if isinstance(n.op, Placeholder)]

    def variables(self) -> List[Variable]:
        return [n.op for n in self if isinstance(n.op, Variable)]

    def consumers(self, name: str) -> List[Node]:
        """Nodes that take ``name`` as a direct input."""
        if name not in self._nodes:
            raise GraphError(f"unknown node '{name}'")
        seen: Set[str] = set()
        out: List[Node] = []
        for consumer in self._succ[name]:
            if consumer not in seen:
                seen.add(consumer)
                out.append(self._nodes[consumer])
        return out

    def successors(self, name: str) -> List[str]:
        """Names of the direct consumers of ``name`` (duplicates preserved)."""
        if name not in self._nodes:
            raise GraphError(f"unknown node '{name}'")
        return list(self._succ[name])

    def predecessors(self, name: str) -> List[str]:
        """Names of the direct inputs of ``name``."""
        return list(self.node(name).inputs)

    # -- cone queries (O(V+E) breadth-first searches) -----------------------

    def downstream(self, starts: Union[str, Iterable[str]]) -> Set[str]:
        """All nodes reachable from ``starts`` (including the starts).

        This is the *fault cone* of a set of nodes: the only nodes whose
        values can change when the starts' outputs change.  Built on the
        precomputed forward adjacency and memoized per start node, so a
        campaign's per-trial cone queries cost O(V+E) once per fault site
        rather than the O(N^2) fixpoint the injector used previously.
        """
        names = [starts] if isinstance(starts, str) else list(starts)
        reached: Set[str] = set()
        for name in names:
            reached |= self._downstream_one(name)
        return reached

    def _downstream_one(self, start: str) -> Set[str]:
        memo = self._downstream_memo.get(start)
        if memo is None:
            if start not in self._nodes:
                raise GraphError(f"unknown node '{start}'")
            memo = {start}
            frontier = [start]
            while frontier:
                name = frontier.pop()
                for consumer in self._succ[name]:
                    if consumer not in memo:
                        memo.add(consumer)
                        frontier.append(consumer)
            self._downstream_memo[start] = memo
        return memo

    def downstream_union(self, starts: Iterable[str]) -> frozenset:
        """The union cone of ``starts``, memoized per start *set*.

        Semantically ``frozenset(self.downstream(starts))``, but the union
        itself is cached keyed by the start set: the cross-site batch packer
        scores candidate batches by how much a site's cone grows the union,
        and campaigns ask for the same fault-node sets over and over (every
        trial at a site, every batch containing it).  Returned frozensets
        are shared — treat them as immutable.
        """
        key = starts if isinstance(starts, frozenset) else frozenset(starts)
        memo = self._union_memo.get(key)
        if memo is None:
            memo = frozenset(self.downstream(key))
            self._union_memo[key] = memo
            if len(self._union_memo) > UNION_MEMO_LIMIT:
                self._union_memo.popitem(last=False)
        else:
            self._union_memo.move_to_end(key)
        return memo

    def cone_schedule(self, seeds: frozenset,
                      requested: Tuple[str, ...]) -> ConeSchedule:
        """The structural part of a replay from ``seeds`` to ``requested``.

        Memoized per (seed set, requested outputs): a campaign replays the
        same fault-node sets over and over, so the topological walk, last
        readers and horizons are built once per set, not once per trial.
        The memo keeps the :data:`SCHEDULE_MEMO_LIMIT` most recently used
        schedules.  Operator flags are read when a schedule is built, so
        flipping an operator's training mode must go through
        :func:`~repro.graph.executor.set_training_mode`, which drops them.
        """
        key = (seeds, requested)
        schedule = self._schedule_memo.get(key)
        if schedule is not None:
            self._schedule_memo.move_to_end(key)
        else:
            needed = self.ancestors(requested)
            members = frozenset(name for name in self.downstream(seeds)
                                if name in needed)
            topo = self.topo_index()
            order = sorted(members, key=topo.__getitem__)
            # Only scheduled nodes ever hold dirty rows, so last readers
            # are tracked for them alone.
            last_reader: Dict[str, str] = {}
            for name in order:
                for inp in self._nodes[name].inputs:
                    if inp in members:
                        last_reader[inp] = name
            horizon: Dict[str, int] = {}
            releases: Dict[str, List[str]] = {}
            for inp, reader in last_reader.items():
                horizon[inp] = topo[reader]
                if inp not in requested:
                    releases.setdefault(reader, []).append(inp)
            steps = []
            for name in order:
                node = self._nodes[name]
                op = node.op
                steps.append(ConeStep(
                    node, topo[name], tuple(releases.get(name, ())),
                    horizon.get(name, -1), node.inputs,
                    isinstance(op, Conv2D), isinstance(op, Placeholder),
                    op.batch_axis is None, bool(op.pointwise),
                    isinstance(op, (MaxPool2D, AvgPool2D))))
            schedule = ConeSchedule(steps=tuple(steps), members=members)
            self._schedule_memo[key] = schedule
            if len(self._schedule_memo) > SCHEDULE_MEMO_LIMIT:
                self._schedule_memo.popitem(last=False)
        return schedule

    def clear_schedules(self) -> None:
        """Drop every memoized replay schedule (they hoist operator flags
        that an operator's training mode changes)."""
        self._schedule_memo.clear()

    def ancestors(self, targets: Union[str, Iterable[str]]) -> Set[str]:
        """All nodes that ``targets`` depend on (including the targets).

        The executor uses this to prune a forward pass down to the nodes
        actually needed for the requested outputs.  Memoized per target
        node, like :meth:`downstream`.
        """
        names = [targets] if isinstance(targets, str) else list(targets)
        reached: Set[str] = set()
        for name in names:
            reached |= self._ancestors_one(name)
        return reached

    def _ancestors_one(self, target: str) -> Set[str]:
        memo = self._ancestors_memo.get(target)
        if memo is None:
            if target not in self._nodes:
                raise GraphError(f"unknown node '{target}'")
            memo = {target}
            frontier = [target]
            while frontier:
                name = frontier.pop()
                for inp in self._nodes[name].inputs:
                    if inp not in memo:
                        memo.add(inp)
                        frontier.append(inp)
            self._ancestors_memo[target] = memo
        return memo

    def num_parameters(self) -> int:
        return int(sum(v.value.size for v in self.variables()))

    def nodes_by_category(self, category: str) -> List[Node]:
        return [n for n in self if n.category == category]

    # -- duplication (import_graph_def analogue) -----------------------------

    def duplicate(self, name: Optional[str] = None,
                  input_map: Optional[Mapping[str, str]] = None,
                  node_hook: Optional[Callable[["Graph", Node], Optional[str]]] = None,
                  ) -> "Graph":
        """Copy this graph node-for-node into a new graph.

        Operator instances are shared between the original and the duplicate
        (weights are not copied), mirroring ``import_graph_def``.

        Parameters
        ----------
        input_map:
            Optional mapping ``{original_node_name: replacement_node_name}``
            applied when rewiring inputs in the duplicate.  The replacement
            name must already exist in the duplicate when it is needed.
        node_hook:
            Optional callback invoked *after* each node is copied; it receives
            the new graph and the just-copied node (in the new graph) and may
            return a replacement node name to be used by downstream consumers
            instead of the copied node — this is exactly how Ranger splices
            range-restriction operators in between existing nodes.
        """
        new = Graph(name=name or f"{self.name}_copy")
        remap: Dict[str, str] = dict(input_map or {})
        for node in self:
            wired_inputs = tuple(remap.get(i, i) for i in node.inputs)
            for inp in wired_inputs:
                if inp not in new:
                    raise GraphError(
                        f"duplicate(): input '{inp}' of node '{node.name}' is "
                        f"not present in the new graph")
            new.add(node.name, node.op, wired_inputs)
            copied = new.node(node.name)
            if node_hook is not None:
                replacement = node_hook(new, copied)
                if replacement is not None:
                    if replacement not in new:
                        raise GraphError(
                            f"node_hook returned unknown replacement "
                            f"'{replacement}' for node '{node.name}'")
                    remap[node.name] = replacement
        for out in self.outputs:
            new.mark_output(remap.get(out, out))
        return new

    # -- summaries -----------------------------------------------------------

    def summary(self) -> str:
        """Human-readable, one-line-per-node description of the graph."""
        lines = [f"Graph '{self.name}': {len(self)} nodes, "
                 f"{self.num_parameters()} parameters"]
        for node in self:
            inputs = ", ".join(node.inputs) if node.inputs else "-"
            lines.append(f"  {node.name:40s} {type(node.op).__name__:20s} "
                         f"<- {inputs}")
        return "\n".join(lines)
