"""Picklable job payloads and content fingerprints for the campaign service.

Everything a client hands the server travels as a :class:`CampaignRequest`
— a picklable bundle of the campaign's :class:`~repro.injection.CampaignSpec`
(model, inputs, fault model, criteria, dtype policy, seed) plus a
:class:`RunOptions` describing *how* to run it (trial budget, backend,
adaptivity).  The server round-trips every submission through
:func:`encode_request` / :func:`decode_request`, which both enforces the
"picklable specs only" contract at the admission boundary and isolates the
server from later client-side mutation of the submitted objects.

Fingerprint key format (see ``docs/service.md``)
------------------------------------------------

* **spec fingerprint** — ``sha1(pickle(model, inputs, fault_model,
  criteria, dtype_policy, seed))``, computed by
  :func:`repro.injection.pool.spec_fingerprint`.  Keys golden activation
  caches: everything a golden cache depends on is in the spec, nothing
  else is.
* **result fingerprint** — ``sha1(spec_fp [|| protected_spec_fp] ||
  repr(canonical options))`` via :func:`result_fingerprint`.  The
  canonical option tuple includes every knob that shapes the result
  *content* (trials, equivalence mode, adaptive targets, strata,
  interval method, backend) — so a stored result is indistinguishable
  from a fresh run of the same request, execution counters included.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..graph.equivalence import DEFAULT_MAX_ULPS, EquivalenceMode
from ..injection.campaign import (DEFAULT_INTERVAL_METHOD, CampaignSpec,
                                  FaultInjectionCampaign)
from ..injection.pool import spec_fingerprint
from ..injection.sampling import Stratification
from ..models.base import Model


@dataclass(frozen=True)
class RunOptions:
    """How one submitted campaign should run.

    Mirrors the keyword surface of
    :meth:`~repro.injection.FaultInjectionCampaign.run`; every field is a
    plain picklable value.  ``use_pool`` routes execution through the
    server's persistent :class:`~repro.injection.pool.CampaignPool` (when
    the server owns one) instead of per-job worker processes; results are
    bit-identical on every backend, so the backend fields are purely
    wall-clock knobs.
    """

    trials: int = 100
    keep_faults: bool = False
    incremental: bool = True
    workers: int = 1
    batch_trials: int = 1
    equivalence: Optional[str] = None
    max_ulps: float = DEFAULT_MAX_ULPS
    use_pool: bool = False
    target_half_width: Optional[float] = None
    wave_trials: Optional[int] = None
    strata: Optional[Stratification] = None
    z: float = 1.96
    interval_method: str = DEFAULT_INTERVAL_METHOD
    joint_stop: bool = True

    @property
    def adaptive(self) -> bool:
        """Whether the job routes through the adaptive (waved) engine."""
        return (self.target_half_width is not None
                or self.strata is not None)

    def coerced_mode(self) -> EquivalenceMode:
        """The equivalence mode the run will satisfy after defaulting."""
        return EquivalenceMode.coerce(
            self.equivalence, EquivalenceMode.EXACT if self.batch_trials == 1
            else EquivalenceMode.ULP_TOLERANT)

    def canonical(self) -> Tuple:
        """The deterministic tuple :func:`result_fingerprint` hashes.

        Includes everything that shapes the stored result's content —
        counts and fault records (trials, adaptivity, strata), metadata
        (equivalence mode, interval method) *and* the execution counters
        (backend knobs: ``workers`` / ``batch_trials`` / ``use_pool``
        change ``nodes_recomputed`` even though counts stay
        bit-identical) — so a cache hit returns exactly what a fresh run
        would.  The leading tag versions the tuple's layout, so disk-tier
        entries keyed under an older layout never alias a current key.
        """
        strata = (None if self.strata is None
                  else (self.strata.layer_bands, self.strata.bit_bands))
        return ("v2", self.trials, self.keep_faults, self.incremental,
                self.workers, self.batch_trials, self.coerced_mode().value,
                self.max_ulps, self.use_pool,
                self.target_half_width, self.wave_trials, strata, self.z,
                self.interval_method, self.joint_stop)


@dataclass
class CampaignRequest:
    """One unit of admission: a campaign (or paired compare) to run.

    ``protected_model`` turns the request into a **paired compare** job:
    the server replays the same fault plans on ``spec.model`` and the
    protected variant (:func:`repro.injection.compare_protection`) and the
    job's result is the ``(unprotected, protected)`` pair.
    """

    spec: CampaignSpec
    options: RunOptions = field(default_factory=RunOptions)
    protected_model: Optional[Model] = None

    @property
    def kind(self) -> str:
        return "compare" if self.protected_model is not None else "campaign"

    def spec_key(self) -> str:
        """Spec fingerprint — the golden-cache key (unprotected side)."""
        return spec_fingerprint(self.spec)

    def protected_spec_key(self) -> Optional[str]:
        """Spec fingerprint of the protected arm, for its golden caches."""
        if self.protected_model is None:
            return None
        protected = CampaignSpec(
            model=self.protected_model, inputs=self.spec.inputs,
            fault_model=self.spec.fault_model, criteria=self.spec.criteria,
            dtype_policy=self.spec.dtype_policy, seed=self.spec.seed)
        return spec_fingerprint(protected)

    def result_key(self) -> str:
        return result_fingerprint(self)

    def build_campaign(self) -> FaultInjectionCampaign:
        return self.spec.build()


def request_from_campaign(model: Model, inputs, *, fault_model=None,
                          criteria=None, dtype_policy=None, seed: int = 0,
                          protected_model: Optional[Model] = None,
                          **option_kwargs) -> CampaignRequest:
    """Build a request from raw campaign ingredients.

    Constructing a throwaway :class:`FaultInjectionCampaign` normalizes
    the defaults exactly the way a direct ``run()`` would (default fault
    model, model-appropriate criteria), so the request's fingerprint
    matches the spec of the equivalent direct campaign.
    """
    campaign = FaultInjectionCampaign(model, inputs, fault_model=fault_model,
                                      criteria=criteria,
                                      dtype_policy=dtype_policy, seed=seed)
    return CampaignRequest(spec=campaign.spec(),
                           options=RunOptions(**option_kwargs),
                           protected_model=protected_model)


def result_fingerprint(request: CampaignRequest) -> str:
    """Content key of the request's finished result (see module docstring)."""
    digest = hashlib.sha1(request.spec_key().encode("ascii"))
    protected_key = request.protected_spec_key()
    if protected_key is not None:
        digest.update(protected_key.encode("ascii"))
    digest.update(repr(request.options.canonical()).encode("utf-8"))
    return digest.hexdigest()


def encode_request(request: CampaignRequest) -> bytes:
    """Serialize a request for admission (or transport)."""
    return pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)


def decode_request(payload: bytes) -> CampaignRequest:
    """Inverse of :func:`encode_request`."""
    request = pickle.loads(payload)
    if not isinstance(request, CampaignRequest):
        raise TypeError(
            f"expected a pickled CampaignRequest, got {type(request).__name__}")
    return request
