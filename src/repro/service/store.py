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
                 ) -> None:
        self.root = Path(root) if root is not None else None
        self.golden_budget_bytes = golden_budget_bytes
        self._memory: Dict[str, Dict[str, Any]] = {}
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
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
                self._hits[kind] = self._hits.get(kind, 0) + 1
                return value
            path = self._path(kind, key)
            if path is not None and path.exists():
                with path.open("rb") as handle:
                    value = pickle.load(handle)
                self._memory.setdefault(kind, {})[key] = value
                self._hits[kind] = self._hits.get(kind, 0) + 1
                return value
            self._misses[kind] = self._misses.get(kind, 0) + 1
            return None

    def put(self, kind: str, key: str, value: Any) -> None:
        """Store an artifact (write-through to disk when rooted)."""
        with self._lock:
            self._memory.setdefault(kind, {})[key] = value
            path = self._path(kind, key)
            if path is not None:
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_suffix(".tmp")
                with tmp.open("wb") as handle:
                    pickle.dump(value, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                tmp.replace(path)  # atomic: readers never see partial pickles

    def contains(self, kind: str, key: str) -> bool:
        """Presence probe that does *not* perturb the hit/miss counters."""
        with self._lock:
            if key in self._memory.get(kind, {}):
                return True
            path = self._path(kind, key)
            return path is not None and path.exists()

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-kind ``{"hits", "misses", "entries"}`` counters."""
        with self._lock:
            kinds = set(self._memory) | set(self._hits) | set(self._misses)
            return {kind: {"hits": self._hits.get(kind, 0),
                           "misses": self._misses.get(kind, 0),
                           "entries": len(self._memory.get(kind, {}))}
                    for kind in sorted(kinds)}

    def close(self) -> None:
        """Drop the memory tier (idempotent; the disk tier is untouched)."""
        with self._lock:
            self._memory.clear()

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
