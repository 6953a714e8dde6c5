"""Client-side conveniences for talking to a :class:`CampaignServer`.

The server is in-process (a thread, not a socket), so the "client" is a
thin ergonomic layer: it owns no state beyond the server reference and
every submission still crosses the pickle admission boundary.  The shape
mirrors a remote client on purpose — code written against
:class:`CampaignClient` / :class:`JobHandle` doesn't care where the
server runs.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from ..models.base import Model
from .serialization import CampaignRequest, request_from_campaign
from .server import CampaignServer, Job


class JobHandle:
    """A submitted job, from the client's side of the boundary."""

    def __init__(self, server: CampaignServer, job: Job) -> None:
        self._server = server
        self._job = job
        self.job_id = job.job_id

    def status(self) -> Dict[str, Any]:
        return self._server.status(self.job_id)

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block for the final result (raises on failure / cancellation)."""
        return self._server.result(self.job_id, timeout=timeout)

    def stream(self, timeout: Optional[float] = None) -> Iterator[Any]:
        """Merged-so-far snapshots per wave; the last one is the result."""
        return self._server.stream_results(self.job_id, timeout=timeout)

    def cancel(self) -> bool:
        return self._server.cancel(self.job_id)

    @property
    def from_cache(self) -> Optional[bool]:
        """Whether the finished job was served from the result cache
        (``None`` while the job is still pending or running)."""
        return self.status().get("from_cache")


class CampaignClient:
    """Submit campaigns and paired compares to a campaign server."""

    def __init__(self, server: CampaignServer) -> None:
        self.server = server

    def submit(self, request: CampaignRequest,
               priority: int = 0) -> JobHandle:
        return JobHandle(self.server, self.server.submit(request,
                                                         priority=priority))

    def submit_campaign(self, model: Model, inputs, *, priority: int = 0,
                        **kwargs) -> JobHandle:
        """Build a request from raw ingredients and submit it.

        Spec keywords (``fault_model``, ``criteria``, ``dtype_policy``,
        ``seed``, ``protected_model``) and
        :class:`~repro.injection.RunOptions` fields both pass
        through ``kwargs``.
        """
        return self.submit(request_from_campaign(model, inputs, **kwargs),
                           priority=priority)

    def run(self, model: Model, inputs, *, priority: int = 0,
            timeout: Optional[float] = None, **kwargs) -> Any:
        """Submit and block for the result — the drop-in replacement for a
        direct ``FaultInjectionCampaign(...).run(...)`` call (bit-identical
        counts and fault records, possibly served from the store)."""
        return self.submit_campaign(model, inputs, priority=priority,
                                    **kwargs).result(timeout=timeout)

    def compare(self, model: Model, protected_model: Model, inputs, *,
                priority: int = 0, timeout: Optional[float] = None,
                **kwargs) -> Any:
        """Submit a paired compare; returns ``(unprotected, protected)``."""
        return self.submit_campaign(model, inputs,
                                    protected_model=protected_model,
                                    priority=priority,
                                    **kwargs).result(timeout=timeout)
