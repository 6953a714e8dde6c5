"""Content-addressed artifact store for the campaign service.

Campaigns are pure functions of their spec, so everything expensive they
produce can be keyed by content and reused across jobs, clients and (with
a disk root) server restarts:

* ``"result"`` — finished :class:`~repro.injection.CampaignResult`\\ s (or
  compare pairs), keyed by the **result fingerprint** of the submitted
  request (:func:`repro.service.serialization.result_fingerprint`).  A
  repeat submission is served without running a single trial.
* ``"golden"`` — per-input golden activation caches, keyed by the **spec
  fingerprint** (:func:`repro.injection.pool.spec_fingerprint`).  An
  overlapping campaign (same spec, different trial budget / backend)
  skips the golden rebuild, its dominant fixed cost.
* ``"ranger_profile"`` — :class:`~repro.core.profiler.BoundsProfile`
  activation profiles, keyed by a hash of (model, profile inputs, seed):
  sweep grids re-profile the same model for every figure otherwise.

Every ``get`` records a hit or a miss per kind (:meth:`ArtifactStore.stats`),
so cache behavior is observable — the CI smoke job asserts on these
counters.  Keys are hex SHA-1 digests, which double as safe file names for
the optional write-through disk backing.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

#: Artifact kinds the store recognises (open set; these are the built-ins).
ARTIFACT_KINDS = ("result", "golden", "ranger_profile")

#: Default ceiling (bytes) on one golden-cache artifact.  Golden caches
#: hold every activation of every referenced input; past this size the
#: rebuild is cheaper than the memory the store would pin.
DEFAULT_GOLDEN_BUDGET_BYTES = 64 * 2 ** 20


def golden_caches_nbytes(caches: Dict[int, Dict[str, np.ndarray]]) -> int:
    """Total payload of a per-input golden-cache mapping."""
    return sum(np.asarray(value).nbytes
               for cache in caches.values() for value in cache.values())


def content_key(*parts: Any) -> str:
    """SHA-1 content key over pickled ``parts`` (for ad-hoc artifacts)."""
    digest = hashlib.sha1()
    for part in parts:
        digest.update(pickle.dumps(part, protocol=pickle.HIGHEST_PROTOCOL))
    return digest.hexdigest()


class ArtifactStore:
    """Content-addressed artifact cache with observable hit/miss counters.

    Thread-safe (the server's scheduler thread and client threads share
    it).  In-memory by default; pass ``root`` for write-through pickle
    persistence (``root/<kind>/<key>.pkl``) so artifacts survive server
    restarts — keys are content hashes, so a stale file is impossible,
    only an orphaned one.
    """

    def __init__(self, root: Optional[Path] = None,
                 golden_budget_bytes: int = DEFAULT_GOLDEN_BUDGET_BYTES,
                 entry_budgets: Optional[Dict[str, int]] = None,
                 byte_budgets: Optional[Dict[str, int]] = None,
                 ) -> None:
        self.root = Path(root) if root is not None else None
        self.golden_budget_bytes = golden_budget_bytes
        #: Per-kind LRU budgets: max in-memory entries / bytes per kind
        #: (unlisted kinds are unbounded, the historical behaviour).
        #: Eviction drops the *memory tier* only — a disk-rooted store
        #: keeps its write-through copy, so an evicted artifact costs a
        #: disk reload, never a recompute.
        self.entry_budgets = dict(entry_budgets or {})
        self.byte_budgets = dict(byte_budgets or {})
        self._memory: Dict[str, "OrderedDict[str, Any]"] = {}
        self._nbytes: Dict[str, Dict[str, int]] = {}
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        self._evictions: Dict[str, int] = {}
        self._lock = threading.Lock()

    # -- core ---------------------------------------------------------------

    def _path(self, kind: str, key: str) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / kind / f"{key}.pkl"

    def get(self, kind: str, key: str) -> Optional[Any]:
        """The stored artifact, or ``None`` — recording a hit or a miss."""
        with self._lock:
            entries = self._memory.get(kind)
            value = entries.get(key) if entries is not None else None
            if value is not None:
                entries.move_to_end(key)
                self._hits[kind] = self._hits.get(kind, 0) + 1
                return value
            path = self._path(kind, key)
            if path is not None and path.exists():
                with path.open("rb") as handle:
                    value = pickle.load(handle)
                self._insert(kind, key, value)
                self._hits[kind] = self._hits.get(kind, 0) + 1
                return value
            self._misses[kind] = self._misses.get(kind, 0) + 1
            return None

    def put(self, kind: str, key: str, value: Any) -> None:
        """Store an artifact (write-through to disk when rooted)."""
        with self._lock:
            self._insert(kind, key, value)
            path = self._path(kind, key)
            if path is not None:
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_suffix(".tmp")
                with tmp.open("wb") as handle:
                    pickle.dump(value, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                tmp.replace(path)  # atomic: readers never see partial pickles

    def _insert(self, kind: str, key: str, value: Any) -> None:
        """Memory-tier insert + LRU eviction sweep (caller holds the lock)."""
        entries = self._memory.setdefault(kind, OrderedDict())
        entries.pop(key, None)
        entries[key] = value
        if kind in self.byte_budgets:
            self._nbytes.setdefault(kind, {})[key] = \
                self._value_nbytes(value)
        entry_budget = self.entry_budgets.get(kind)
        byte_budget = self.byte_budgets.get(kind)
        while entries and (
                (entry_budget is not None and len(entries) > entry_budget)
                or (byte_budget is not None
                    and sum(self._nbytes.get(kind, {}).values())
                    > byte_budget)):
            if len(entries) == 1:
                break  # never evict the entry just inserted
            stale_key, _ = entries.popitem(last=False)
            self._nbytes.get(kind, {}).pop(stale_key, None)
            self._evictions[kind] = self._evictions.get(kind, 0) + 1

    @staticmethod
    def _value_nbytes(value: Any) -> int:
        if (isinstance(value, dict)
                and all(isinstance(entry, dict) for entry in value.values())):
            return golden_caches_nbytes(value)
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    def contains(self, kind: str, key: str) -> bool:
        """Presence probe that does *not* perturb the hit/miss counters."""
        with self._lock:
            if key in self._memory.get(kind, {}):
                return True
            path = self._path(kind, key)
            return path is not None and path.exists()

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-kind ``{"hits", "misses", "entries"}`` counters, plus an
        ``"evictions"`` count for kinds the LRU budgets have actually
        evicted from (omitted while zero, so unbudgeted deployments see
        the historical shape)."""
        with self._lock:
            kinds = (set(self._memory) | set(self._hits) | set(self._misses)
                     | set(self._evictions))
            out: Dict[str, Dict[str, int]] = {}
            for kind in sorted(kinds):
                counters = {"hits": self._hits.get(kind, 0),
                            "misses": self._misses.get(kind, 0),
                            "entries": len(self._memory.get(kind, {}))}
                if self._evictions.get(kind):
                    counters["evictions"] = self._evictions[kind]
                out[kind] = counters
            return out

    def close(self) -> None:
        """Drop the memory tier (idempotent; the disk tier is untouched)."""
        with self._lock:
            self._memory.clear()
            self._nbytes.clear()

    # -- golden caches ------------------------------------------------------

    def put_golden_caches(self, spec_key: str,
                          caches: Dict[int, Dict[str, np.ndarray]]) -> bool:
        """Store a campaign's golden caches, gated by
        ``golden_budget_bytes``.  Returns whether the caches were stored;
        empty mappings are always skipped."""
        if not caches:
            return False
        if golden_caches_nbytes(caches) > self.golden_budget_bytes:
            return False
        self.put("golden", spec_key, caches)
        return True

    # -- ranger profiles ----------------------------------------------------

    @staticmethod
    def ranger_profile_key(model: Any, inputs: np.ndarray, seed: int) -> str:
        """Content key of one activation-profiling pass.

        The profile depends only on the model (graph + weights), the
        profiling inputs and the profiler seed — the selection percentile
        is applied *after* profiling, so one stored profile serves every
        percentile.
        """
        return content_key(model, np.asarray(inputs), seed)
