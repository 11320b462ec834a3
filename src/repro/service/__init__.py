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
"""

from repro.service.broker import BrokerError, LocalJobHandle, SweepBroker
from repro.service.client import RemoteJobHandle, ServiceClient, ServiceError
from repro.service.http import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    SweepService,
    serve_forever,
)
from repro.service.jobs import (
    ACTIVE_STATES,
    CANCELLED,
    COMPLETED,
    FAILED,
    PENDING,
    RUNNING,
    TERMINAL_STATES,
    JobHandle,
    JobStatus,
    JobStore,
)
from repro.service.worker import CellPool, run_cell, worker_identity

__all__ = [
    "ACTIVE_STATES",
    "BrokerError",
    "CANCELLED",
    "CellPool",
    "COMPLETED",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "FAILED",
    "JobHandle",
    "JobStatus",
    "JobStore",
    "LocalJobHandle",
    "PENDING",
    "RUNNING",
    "RemoteJobHandle",
    "ServiceClient",
    "ServiceError",
    "SweepBroker",
    "SweepService",
    "TERMINAL_STATES",
    "run_cell",
    "serve_forever",
    "worker_identity",
]
