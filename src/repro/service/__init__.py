"""Sweep service: shardable job broker + asyncio HTTP front-end.

The package splits along the trust boundary of the architecture:

- :mod:`repro.service.worker` — the one cell worker (fill one cache
  entry, lease-guarded) and the one executor, ``CellPool``, that
  sweeps, the broker, the arena and the fuzzer all run cells on.
- :mod:`repro.service.broker` — walks submitted grids on its pool
  and persists resumable job state.
- :mod:`repro.service.jobs` — job states, status records, persistence,
  and the :class:`JobHandle` surface front-ends hand back.
- :mod:`repro.service.http` — stdlib-asyncio HTTP/JSON endpoints.
- :mod:`repro.service.client` — blocking ``http.client`` consumer of
  those endpoints (:class:`ServiceClient` / :class:`RemoteJobHandle`).

Every name below loads its module on first access: a client-only
caller never loads the broker, the simulator or asyncio.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.service.broker": ("BrokerError", "LocalJobHandle", "SweepBroker"),
    "repro.service.client": ("RemoteJobHandle", "ServiceClient", "ServiceError"),
    "repro.service.http": (
        "DEFAULT_HOST",
        "DEFAULT_PORT",
        "SweepService",
        "serve_forever",
    ),
    "repro.service.jobs": (
        "ACTIVE_STATES",
        "CANCELLED",
        "COMPLETED",
        "FAILED",
        "PENDING",
        "RUNNING",
        "TERMINAL_STATES",
        "JobHandle",
        "JobStatus",
        "JobStore",
    ),
    "repro.service.worker": ("CellPool", "run_cell", "worker_identity"),
})
