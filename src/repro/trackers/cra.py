"""CRA: Counter-based Row Activation tracking (Kim et al., CAL 2014).

The DRAM-based baseline: one counter per row lives in a reserved
region of memory, read and written by the memory controller with
regular 64 B line accesses, fronted by a *conventional* metadata
cache — 64 B-line granularity, address-tagged, set-associative LRU
(this line granularity, relying on spatial locality that row-level
access streams do not have, is exactly why CRA's cache misses so much;
Hydra's RCC caches single counters instead).

On every activation the controller needs the row's counter:

- metadata-cache hit: increment in place (no DRAM traffic);
- miss: read the counter line from DRAM, install it, and write back
  the evicted line if dirty.

Mitigation (victim refresh) triggers at T_RH/2 (window-reset halving)
and resets the counter.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.rct import RowCountTable
from repro.dram.timing import DramGeometry
from repro.trackers.base import ActivationTracker, MetaAccess, TrackerResponse
from repro.trackers.registry import KB_SIZE, SYSTEM_SIZE, Param, register_tracker

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig


class LineMetadataCache:
    """Set-associative LRU cache of 64 B metadata lines."""

    __slots__ = ("sets", "ways", "_sets", "hits", "misses", "evictions")

    def __init__(self, capacity_bytes: int, line_bytes: int = 64, ways: int = 16) -> None:
        lines = capacity_bytes // line_bytes
        if ways < 1 or lines < ways or lines % ways:
            raise ValueError("capacity must hold a whole number of sets")
        self.sets = lines // ways
        self.ways = ways
        # line_id -> dirty flag, in LRU order (oldest first).
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self.sets)
        ]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def access(self, line_id: int, make_dirty: bool) -> Tuple[bool, Optional[int]]:
        """Touch a line (installing it on a miss).

        Returns ``(hit, dirty_victim_line)``: ``hit`` is False when the
        line had to be installed, and ``dirty_victim_line`` names an
        evicted dirty line that must be written back (clean evictions
        are free and reported as None).
        """
        cache_set = self._sets[line_id % self.sets]
        if line_id in cache_set:
            self.hits += 1
            cache_set.move_to_end(line_id)
            if make_dirty:
                cache_set[line_id] = True
            return True, None
        self.misses += 1
        victim: Optional[int] = None
        if len(cache_set) >= self.ways:
            victim_line, victim_dirty = cache_set.popitem(last=False)
            self.evictions += 1
            if victim_dirty:
                victim = victim_line
        cache_set[line_id] = make_dirty
        return False, victim

    def contains(self, line_id: int) -> bool:
        return line_id in self._sets[line_id % self.sets]

    def reset(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()


class CraTracker(ActivationTracker):
    """Per-row DRAM counters + conventional metadata cache."""

    name = "cra"

    def __init__(
        self,
        geometry: DramGeometry,
        trh: int = 500,
        cache_bytes: int = 64 * 1024,
        cache_ways: int = 16,
    ) -> None:
        self.geometry = geometry
        self.trh = trh
        self.threshold = trh // 2
        counter_bytes = max(1, (self.threshold.bit_length() + 7) // 8)
        self.table = RowCountTable(geometry, counter_bytes=counter_bytes)
        self.cache = LineMetadataCache(cache_bytes, ways=cache_ways)
        self._counters_per_line = (
            geometry.line_size_bytes // counter_bytes
        )
        self.cache_bytes = cache_bytes
        self.mitigations = 0
        self.extra_read_lines = 0
        self.extra_write_lines = 0
        # Values ``on_activation`` reads, hoisted as in ``HydraTracker``:
        # the meta-row guard's two ints, the counter list and the LRU
        # sets. ``RowCountTable.reset_all`` and ``LineMetadataCache.
        # reset`` clear in place, so the references survive window
        # resets.
        self._rows_per_bank = geometry.rows_per_bank
        self._meta_base_local = self.table.meta_base_local
        self._counts = self.table._counts
        self._cache_sets = self.cache._sets
        #: line id -> the line's ``(read, writeback)`` metadata
        #: accesses. They depend on the line alone, so the memo
        #: outlives window resets.
        self._line_meta: Dict[int, Tuple[MetaAccess, MetaAccess]] = {}

    def _line_of(self, row_id: int) -> int:
        return row_id // self._counters_per_line

    def _meta_row_of_line(self, line_id: int) -> int:
        return self.table.meta_row_of(line_id * self._counters_per_line)

    def _memo_line_meta(self, line_id: int) -> Tuple[MetaAccess, MetaAccess]:
        row = self._meta_row_of_line(line_id)
        meta = (MetaAccess(row, 1, False), MetaAccess(row, 1, True))
        self._line_meta[line_id] = meta
        return meta

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        # One frame: ``table.is_meta_row``/``read``/``write``,
        # ``_line_of`` and ``cache.access(line, make_dirty=True)``
        # inlined; those originals stay as the reference that
        # tests/trackers/test_cra.py drives this body against.
        if row_id % self._rows_per_bank >= self._meta_base_local:
            # CRA as published does not guard its own counter rows
            # (Hydra's §5.2.2 RIT-ACT has no CRA equivalent); counter-
            # row activations are simply not tracked.
            return None
        counts = self._counts
        count = counts[row_id] + 1
        if count >= self.threshold:
            self.mitigations += 1
            counts[row_id] = 0
            mitigate: Tuple[int, ...] = (row_id,)
        else:
            counts[row_id] = count
            mitigate = ()
        line = row_id // self._counters_per_line
        cache = self.cache
        cache_set = self._cache_sets[line % cache.sets]
        if line in cache_set:
            cache.hits += 1
            cache_set.move_to_end(line)
            cache_set[line] = True
            return TrackerResponse(mitigate) if mitigate else None
        cache.misses += 1
        self.extra_read_lines += 1
        line_meta = self._line_meta
        read = (line_meta.get(line) or self._memo_line_meta(line))[0]
        if len(cache_set) >= cache.ways:
            victim, victim_dirty = cache_set.popitem(last=False)
            cache.evictions += 1
            cache_set[line] = True
            if victim_dirty:
                self.extra_write_lines += 1
                write = (line_meta.get(victim) or self._memo_line_meta(victim))[1]
                return TrackerResponse(mitigate, (read, write))
        else:
            cache_set[line] = True
        return TrackerResponse(mitigate, (read,))

    def on_window_reset(self) -> None:
        self.table.reset_all()
        self.cache.reset()

    def extra_stats(self) -> dict:
        """Metadata-cache behaviour (drives the Figure 2 analysis)."""
        total = self.cache.hits + self.cache.misses
        return {
            "cache_miss_rate": self.cache.misses / total if total else 0.0,
        }

    def obs_snapshot(self) -> dict:
        """Cumulative counters for the per-window series recorder.

        The metadata cache's hit/miss/eviction counters survive window
        resets (``LineMetadataCache.reset`` clears entries, not
        accounting), so the per-window cache miss rate — the Figure 2
        story — falls out of the deltas.
        """
        return {
            "tracker_mitigations": float(self.mitigations),
            "cra_cache_hits": float(self.cache.hits),
            "cra_cache_misses": float(self.cache.misses),
            "cra_cache_evictions": float(self.cache.evictions),
            "cra_extra_read_lines": float(self.extra_read_lines),
            "cra_extra_write_lines": float(self.extra_write_lines),
        }

    def publish_metrics(self, registry) -> None:
        super().publish_metrics(registry)
        for name, value in self.obs_snapshot().items():
            if name == "tracker_mitigations":
                continue
            registry.counter(name, f"CraTracker {name}").inc(int(value))
        total = self.cache.hits + self.cache.misses
        registry.gauge(
            "cra_cache_miss_rate", "whole-run metadata-cache miss rate"
        ).set(self.cache.misses / total if total else 0.0)

    def sram_bytes(self) -> int:
        """Metadata cache data + ~25% tag/valid/LRU overhead."""
        return int(self.cache_bytes * 1.25)

    def dram_reserved_bytes(self) -> int:
        return self.table.dram_reserved_bytes()


@register_tracker(
    "cra",
    summary="per-row DRAM counters behind a line-granularity cache",
    params={
        "cache_kb": Param(
            int,
            help="full-scale metadata cache size in KB (default 64,"
            " scaled with the system)",
            bounds=KB_SIZE,
        ),
        "cache_ways": Param(int, 16, "cache associativity", bounds=SYSTEM_SIZE),
    },
)
def _cra_from_context(
    ctx: SystemConfig,
    cache_kb: Optional[int] = None,
    cache_ways: int = 16,
) -> CraTracker:
    full_bytes = cache_kb * 1024 if cache_kb is not None else None
    return CraTracker(
        ctx.geometry,
        trh=ctx.trh,
        cache_bytes=ctx.cra_cache_bytes(full_bytes),
        cache_ways=cache_ways,
    )
