"""The sweep service's cell worker: one cache fill, lease-guarded.

This is the disposable unit of the service architecture: a worker is
handed a fully self-describing cell — a picklable
(:class:`~repro.sim.config.SystemConfig`, tracker spec, workload name)
triple plus the shared cache directory — and leaves exactly one
content-addressed entry in the :class:`~repro.sim.cache.ResultCache`.
Everything else (job state, manifests, retries) lives in the broker;
a worker that crashes loses nothing but its own wall time.

The lease protocol (DESIGN.md §15) keeps racing workers from
duplicating simulations: whoever atomically creates ``<key>.lease``
simulates and stores; everyone else polls the cache until the entry
lands. A lease whose holder crashed expires after its TTL and is
reclaimed, so a dead worker delays a cell, never wedges it. The
protocol is an optimization — if it ever double-grants, both winners
compute the same deterministic payload and the atomic store keeps the
cache consistent.
"""

from __future__ import annotations

import os
import socket
import time
import uuid
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.sim.cache import DEFAULT_LEASE_TTL_S, ResultCache
from repro.sim.config import SystemConfig
from repro.sim.simulator import simulate_workload

#: How often a worker that lost the lease re-polls the cache for the
#: winner's entry.
DEFAULT_POLL_S = 0.05


def worker_identity() -> str:
    """A lease-owner string unique to this worker invocation."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


def run_cell(
    config: SystemConfig,
    tracker: str,
    workload: str,
    cache_dir: Optional[str],
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_s: float = DEFAULT_POLL_S,
    cache: Optional[ResultCache] = None,
) -> Tuple[Dict[str, Any], bool, float]:
    """Produce one cell's payload through the shared cache.

    Returns ``(payload, from_cache, wall_s)`` exactly like the
    parallel sweep's work unit, but lease-guarded: concurrent workers
    (of this broker, another broker, or another machine sharing the
    cache directory) fill each unique key once.

    In-process pools pass the broker's own ``cache`` instance so its
    ``stores`` / ``leases_reclaimed`` counters observe worker activity;
    process pools pass only ``cache_dir`` (picklable) and each worker
    builds its own view.
    """
    from repro.sim.sweep import _validated_entry, cell_key

    started = time.perf_counter()
    if cache_dir is None and cache is None:
        result = simulate_workload(config, tracker, workload)
        return result.to_dict(), False, time.perf_counter() - started

    if cache is None:
        cache = ResultCache(Path(cache_dir))
    key = cell_key(config, tracker, workload)
    owner = worker_identity()
    while True:
        entry = _validated_entry(cache, key)
        if entry is not None:
            return entry[0], True, time.perf_counter() - started
        if cache.lease(key, owner, ttl_s=lease_ttl_s):
            try:
                result = simulate_workload(config, tracker, workload)
                payload = result.to_dict()
                cache.store(key, payload)
                return payload, False, time.perf_counter() - started
            finally:
                cache.release(key, owner)
        # Someone else holds the lease: wait for their store to land
        # (or for the lease to expire so the loop reclaims it).
        time.sleep(poll_s)
