"""CPU-side model: the shared last-level cache.

:class:`LastLevelCache` filters a core's address stream into the DRAM
row trace (:mod:`repro.workloads.address_stream`). The core itself is
the memory controllers' limited-MLP window: ``run_trace(trace, mlp)``
issues requests in program order with at most ``mlp`` in flight.
"""

from repro.cpu.cache import CacheStats, LastLevelCache

__all__ = ["CacheStats", "LastLevelCache"]
