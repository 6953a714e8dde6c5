"""Campaign worker fan-out: start method, BLAS thread cap, fallback log."""

from .fanout import (
    START_METHOD_ENV,
    blas_threads_per_worker,
    campaign_executor,
    campaign_mp_context,
    log_fallback_once,
    openblas_threads,
    usable_cpus,
)


# Compatibility names for campaign_bench, which still imports them:
# workloads.py and host.py call shared_plane(), tracer.py wraps
# SharedCachePlane.encode.  There is no shared-memory plane any more, so
# shared_plane() is always None and encode is never called.  The next
# change to campaign_bench drops both names.
class SharedCachePlane:
    def encode(self, *args, **kwargs):
        raise NotImplementedError("campaigns have no shared-memory plane")


def shared_plane() -> None:
    return None


__all__ = [
    "START_METHOD_ENV",
    "blas_threads_per_worker",
    "campaign_executor",
    "campaign_mp_context",
    "log_fallback_once",
    "openblas_threads",
    "usable_cpus",
]
