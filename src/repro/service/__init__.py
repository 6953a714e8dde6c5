"""Campaign service: async scheduler + content-addressed artifact store.

A long-lived, in-process campaign server the experiment sweeps submit to
(:class:`CampaignServer` / :class:`CampaignClient`): jobs are admitted
through a prioritized queue with backpressure, executed wave-by-wave on
the campaign engine's own backends (sharing one persistent
:class:`~repro.injection.pool.CampaignPool`), streamed to subscribers as
merged-so-far snapshots, and their expensive artifacts — finished results,
golden activation caches, Ranger activation profiles — are reused across
jobs through a content-addressed :class:`ArtifactStore`.

Results are bit-identical (counts and fault records) to direct
``FaultInjectionCampaign.run()`` calls on every backend; see
``docs/service.md`` for the design and the determinism argument.
"""

from ..injection.campaign import RunOptions
from .client import CampaignClient, JobHandle
from .queue import AdmissionError, JobQueue
from .scheduler import JobCancelled, JobOutcome, WaveScheduler
from .serialization import (CampaignRequest, decode_request, encode_request,
                            request_from_campaign, result_fingerprint)
from .server import CampaignServer, Job
from .store import ArtifactStore, content_key

__all__ = [
    "AdmissionError",
    "ArtifactStore",
    "CampaignClient",
    "CampaignRequest",
    "CampaignServer",
    "Job",
    "JobCancelled",
    "JobHandle",
    "JobOutcome",
    "JobQueue",
    "RunOptions",
    "WaveScheduler",
    "content_key",
    "decode_request",
    "encode_request",
    "request_from_campaign",
    "result_fingerprint",
]
