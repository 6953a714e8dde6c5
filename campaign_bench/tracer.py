"""In-memory span tracer that wraps the engine's public layer functions.

The benchmark's traced run patches the public methods of each layer
(:func:`layer_methods` and :func:`operator_classes`) with thin
wrappers that record one span per call: name, start, end, parent span
and the benchmark cell the call belongs to.  Spans live in per-thread
flat ``array`` buffers until the run ends and are written out in one file.
Self time (a span's duration minus its direct children's) is computed
as spans close, so per-layer totals need no second pass.

The wrappers are installed only around the traced window and removed
afterwards; the untraced runs never see them.  Forked pool workers
inherit a disabled tracer, so spans are recorded in this process only.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

#: Span name for a benchmark cell (one paired campaign / service job).
CELL = "cell"

#: Operator classes per op kind; every other operator is "elementwise"
#: (activations, bias, add, clip, normalisation, reshape, concat, ...).
OP_KINDS = {"Conv2D": "ops.conv", "MatMul": "ops.dense",
            "MaxPool2D": "ops.pool", "AvgPool2D": "ops.pool",
            "GlobalAvgPool": "ops.pool"}

#: Parameter-read operators: no compute, left to their caller's self time.
OP_SKIP = {"Placeholder", "Constant", "Variable"}

OP_METHODS = ("forward", "forward_out", "sparse_forward")


#: Fields of one closed span, stored flat in a per-thread ``array``.
FIELDS = ("ids", "names", "starts", "ends", "parents", "cells", "selfs")


class _ThreadSpans:
    """Closed spans of one thread, plus its stack of open spans."""

    __slots__ = ("slot", "next_id", "stack", "data")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.next_id = 0
        #: Open spans: [local id, name id, start ns, children ns, leaf].
        self.stack: List[list] = []
        #: len(FIELDS) int64s per closed span; ids are thread-local.
        self.data = array("q")


class Tracer:
    """Records spans for the public layer functions it wraps."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._threads_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self.enabled = False
        #: Id of the benchmark cell in flight (-1 outside cells).  One
        #: cell runs at a time, so the service thread reads it too.
        self.cell = -1
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self.enabled = False

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _register_thread(self) -> _ThreadSpans:
        with self._threads_lock:
            spans = _ThreadSpans(len(self._threads))
            self._threads.append(spans)
        self._local.spans = spans
        return spans

    def _spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            return self._register_thread()

    def _open(self, spans: _ThreadSpans, name_id: int, leaf: bool) -> list:
        """Push a new open span onto ``spans``' stack and start its clock."""
        frame = [spans.next_id, name_id, 0, 0, leaf]
        spans.next_id += 1
        spans.stack.append(frame)
        frame[2] = perf_counter_ns()
        return frame

    def _close(self, spans: _ThreadSpans, frame: list) -> None:
        """Stop ``frame`` (the top of the stack), charge its duration to
        its parent and store it as a closed span."""
        end = perf_counter_ns()
        stack = spans.stack
        stack.pop()
        duration = end - frame[2]
        parent_id = -1
        if stack:
            stack[-1][3] += duration
            parent_id = stack[-1][0]
        spans.data.extend((frame[0], frame[1], frame[2], end, parent_id,
                           self.cell, duration - frame[3]))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` body as one span around the benchmark's own
        call into a layer (set-up steps and whole cells).  Recorded even
        while the wrappers are disabled: set-up spans come from here."""
        spans = self._spans()
        frame = self._open(spans, self.name_id(name), False)
        try:
            yield
        finally:
            self._close(spans, frame)

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, fn: Callable, name: str, leaf: bool) -> Callable:
        """A recording wrapper around ``fn`` (the hot path of tracing)."""
        tracer = self
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans = tracer._spans()
            if spans.stack and spans.stack[-1][4]:
                return fn(*args, **kwargs)  # an op inside an op: not a span
            frame = tracer._open(spans, name_id, leaf)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(spans, frame)

        return traced

    def patch(self, owner: type, attr: str, name: str,
              leaf: bool = False) -> None:
        """Replace ``owner.attr`` (a function or classmethod defined on
        ``owner`` itself) by a recording wrapper."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(raw.__func__, name, leaf))
        else:
            wrapped = self._wrapper(raw, name, leaf)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every layer's public functions (idempotent per tracer)."""
        if self._patches:
            return
        for owner, attr, name in layer_methods():
            self.patch(owner, attr, name)
        for cls, kind in operator_classes():
            for attr in OP_METHODS:
                if attr in cls.__dict__:
                    self.patch(cls, attr, kind, leaf=True)
        from repro.quantization import FixedPointPolicy
        self.patch(FixedPointPolicy, "apply", "quantization.apply",
                   leaf=True)

    def uninstall(self) -> None:
        """Restore every patched attribute, most recent first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- read-out ------------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        """All closed spans as aligned int64 columns (global span ids)."""
        blocks = []
        for spans in self._threads:
            if not spans.data:
                continue
            block = np.frombuffer(spans.data, dtype=np.int64).reshape(
                -1, len(FIELDS)).copy()
            offset = spans.slot << 40
            block[:, 0] += offset
            block[block[:, 4] >= 0, 4] += offset
            blocks.append(block)
        table = (np.concatenate(blocks) if blocks
                 else np.zeros((0, len(FIELDS)), np.int64))
        return {name: table[:, index] for index, name in enumerate(FIELDS)}

    def write(self, path: Path, meta: Dict) -> None:
        """Write the spans (compressed columns) and their name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = self.columns()
        np.savez_compressed(path, **columns)
        with open(path.with_suffix(".names.json"), "w") as handle:
            json.dump({"names": self.names, "meta": meta}, handle, indent=1)


def layer_methods() -> List[Tuple[type, str, str]]:
    """(class, attribute, span name) for every wrapped layer function."""
    from repro.graph import Executor
    from repro.injection import (CampaignPool, CampaignResult,
                                 FaultInjectionCampaign, FaultInjector,
                                 SDCCriterion)
    from repro.parallel import SharedCachePlane
    from repro.service import CampaignServer, WaveScheduler

    methods = [
        (Executor, "run", "graph.golden_run"),
        (Executor, "run_from", "graph.run_from"),
        (Executor, "run_from_batched", "graph.run_from_batched"),
        (FaultInjectionCampaign, "__init__", "injection.campaign_init"),
        (FaultInjectionCampaign, "generate_plans",
         "injection.generate_plans"),
        (FaultInjectionCampaign, "pack_batches", "injection.pack_batches"),
        (FaultInjector, "inject_cached", "injection.inject"),
        (FaultInjector, "inject_cached_batch", "injection.inject"),
        (CampaignResult, "merge", "injection.merge"),
        (CampaignPool, "run_plans", "pool.run_plans"),
        (SharedCachePlane, "encode", "shm.encode"),
        (CampaignServer, "submit", "service.submit"),
        (WaveScheduler, "execute", "service.execute"),
    ]
    for cls in _subclasses(SDCCriterion, include_root=True):
        for attr in ("is_sdc", "is_sdc_rows"):
            if attr in cls.__dict__:
                methods.append((cls, attr, "injection.verdict"))
    return methods


def operator_classes() -> List[Tuple[type, str]]:
    """(operator class, op kind) for every concrete operator."""
    import repro.core  # noqa: F401  (registers the restriction operators)
    from repro.ops import Operator

    return [(cls, OP_KINDS.get(cls.__name__, "ops.elementwise"))
            for cls in _subclasses(Operator, include_root=False)
            if cls.__name__ not in OP_SKIP]


def _subclasses(root: type, include_root: bool) -> List[type]:
    seen: List[type] = [root] if include_root else []
    pending = list(root.__subclasses__())
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen
