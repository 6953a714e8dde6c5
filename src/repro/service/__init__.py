"""Campaign service: async scheduler + content-addressed artifact store.

A long-lived, in-process campaign server the experiment sweeps submit to:
``CampaignServer(pool=...).submit(request_from_campaign(...))`` returns a
:class:`Job`, the one client handle (``result``, ``iter_snapshots``,
``describe``, ``cancel``).  Jobs are admitted through a prioritized queue
with backpressure, executed wave-by-wave on the campaign engine's own
backends (on a borrowed :class:`~repro.injection.pool.CampaignPool` for
``use_pool=True`` jobs), streamed as merged-so-far snapshots, and their
expensive artifacts — finished results and golden activation caches —
are reused across jobs through a content-addressed :class:`ArtifactStore`.

Results are bit-identical (counts and fault records) to direct
``FaultInjectionCampaign.run()`` calls on every backend; see
``docs/service.md`` for the design and the determinism argument.
"""

from ..injection.campaign import RunOptions
from .queue import AdmissionError, JobQueue
from .scheduler import JobCancelled, JobOutcome, WaveScheduler
from .serialization import (CampaignRequest, decode_request, encode_request,
                            request_from_campaign, result_fingerprint)
from .server import CampaignServer, Job
from .store import ArtifactStore, content_key

__all__ = [
    "AdmissionError",
    "ArtifactStore",
    "CampaignRequest",
    "CampaignServer",
    "Job",
    "JobCancelled",
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
