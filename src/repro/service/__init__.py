"""Coloring as a service: async request layer over the execution runtime.

- :mod:`repro.service.cache`: the digest-keyed result cache;
- :mod:`repro.service.server`: :class:`ColoringService`, the asyncio
  job queue + worker pool; each engine call runs under its own
  :class:`~repro.runtime.ExecutionContext`;
- :mod:`repro.service.net`: the JSON-lines TCP front end and a small
  synchronous client.
"""

from .cache import ResultCache, cache_key
from .net import ServiceClient, run_service
from .server import ColoringService

__all__ = ["ColoringService", "ResultCache", "ServiceClient", "cache_key",
           "run_service"]
