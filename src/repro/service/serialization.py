"""Picklable job payloads and content fingerprints for the campaign service.

Everything a client hands the server travels as a :class:`CampaignRequest`
— a picklable bundle of the campaign's :class:`~repro.injection.CampaignSpec`
(model, inputs, fault model, criteria, dtype policy, seed) plus a
:class:`~repro.injection.RunOptions` describing *how* to run it (trial
budget, backend, adaptivity).  ``RunOptions`` validates itself when it is
built, so an invalid job is refused at admission with the same message a
direct ``run()`` raises.  The server round-trips every submission through
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
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from ..injection.campaign import CampaignSpec, RunOptions
from ..injection.pool import spec_fingerprint
from ..models.base import Model


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

    def arm_specs(self) -> List[CampaignSpec]:
        """The spec of each arm: the campaign, then the protected variant
        (same inputs, fault model, criteria, dtype policy and seed)."""
        if self.protected_model is None:
            return [self.spec]
        return [self.spec, replace(self.spec, model=self.protected_model)]

    def arm_keys(self) -> List[str]:
        """The spec fingerprint of each arm (:meth:`arm_specs`); the
        first keys the golden caches, and all of them make the
        :func:`result_fingerprint`."""
        return [spec_fingerprint(spec) for spec in self.arm_specs()]


def request_from_campaign(model: Model, inputs, *, fault_model=None,
                          criteria=None, dtype_policy=None, seed: int = 0,
                          protected_model: Optional[Model] = None,
                          **option_kwargs) -> CampaignRequest:
    """Build a request from raw campaign ingredients.

    :meth:`CampaignSpec.of` fills in and checks the defaults exactly the
    way the :class:`~repro.injection.FaultInjectionCampaign` constructor
    does (default fault model, model-appropriate criteria), so the
    request's fingerprint matches the spec of the equivalent direct
    campaign; no campaign is built.
    """
    spec = CampaignSpec.of(model, inputs, fault_model=fault_model,
                           criteria=criteria, dtype_policy=dtype_policy,
                           seed=seed)
    return CampaignRequest(spec=spec, options=RunOptions(**option_kwargs),
                           protected_model=protected_model)


def result_fingerprint(request: CampaignRequest,
                       arm_keys: Sequence[str]) -> str:
    """Content key of the request's finished result (see module docstring),
    from the request's :meth:`~CampaignRequest.arm_keys`."""
    digest = hashlib.sha1()
    for key in arm_keys:
        digest.update(key.encode("ascii"))
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
