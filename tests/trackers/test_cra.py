"""Tests for CRA (per-row DRAM counters + line-granularity cache)."""

from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.timing import DramGeometry
from repro.trackers.base import MetaAccess, TrackerResponse
from repro.trackers.cra import CraTracker, LineMetadataCache

GEOMETRY = DramGeometry(
    channels=1,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)


class TestLineMetadataCache:
    def test_miss_installs(self):
        cache = LineMetadataCache(capacity_bytes=16 * 64, ways=16)
        hit, victim = cache.access(1, make_dirty=True)
        assert not hit and victim is None
        hit, victim = cache.access(1, make_dirty=False)
        assert hit

    def test_dirty_eviction_reported(self):
        cache = LineMetadataCache(capacity_bytes=16 * 64, ways=16)  # 1 set
        for line in range(16):
            cache.access(line, make_dirty=True)
        hit, victim = cache.access(99, make_dirty=True)
        assert not hit
        assert victim == 0  # LRU order: first-installed evicted

    def test_clean_eviction_free(self):
        cache = LineMetadataCache(capacity_bytes=16 * 64, ways=16)
        for line in range(16):
            cache.access(line, make_dirty=False)
        hit, victim = cache.access(99, make_dirty=True)
        assert victim is None

    def test_lru_promotion(self):
        cache = LineMetadataCache(capacity_bytes=16 * 64, ways=16)
        for line in range(16):
            cache.access(line, make_dirty=True)
        cache.access(0, make_dirty=False)  # promote line 0
        __, victim = cache.access(99, make_dirty=True)
        assert victim == 1

    def test_rejects_partial_sets(self):
        with pytest.raises(ValueError):
            LineMetadataCache(capacity_bytes=100, ways=16)

    def test_reset(self):
        cache = LineMetadataCache(capacity_bytes=16 * 64, ways=16)
        cache.access(1, make_dirty=True)
        cache.reset()
        hit, _ = cache.access(1, make_dirty=False)
        assert not hit


class TestCraTracker:
    def make(self, trh=100, cache_bytes=16 * 64) -> CraTracker:
        return CraTracker(GEOMETRY, trh=trh, cache_bytes=cache_bytes)

    def test_first_access_misses_and_fetches(self):
        tracker = self.make()
        response = tracker.on_activation(0)
        assert response is not None
        reads = [a for a in response.meta_accesses if not a.is_write]
        assert len(reads) == 1
        assert reads[0].row_id == tracker.table.meta_row_of(0)

    def test_cached_line_covers_64_neighbouring_rows(self):
        tracker = self.make()
        tracker.on_activation(0)
        # Row 1's counter shares row 0's line: pure cache hit, silent.
        assert tracker.on_activation(1) is None
        assert tracker.cache.hits == 1

    def test_dirty_writeback_on_conflict(self):
        tracker = self.make(cache_bytes=16 * 64)  # 16 lines, 1 set
        for line_index in range(16):
            tracker.on_activation(line_index * 64)
        response = tracker.on_activation(16 * 64)
        writes = [a for a in response.meta_accesses if a.is_write]
        assert len(writes) == 1

    def test_mitigation_at_half_trh(self):
        tracker = self.make(trh=100)
        mitigated_at = None
        for i in range(1, 60):
            response = tracker.on_activation(7)
            if response and response.mitigate_rows:
                mitigated_at = i
                break
        assert mitigated_at == 50
        assert tracker.mitigations == 1

    def test_counter_reset_after_mitigation(self):
        tracker = self.make(trh=100)
        for _ in range(50):
            tracker.on_activation(7)
        assert tracker.table.read(7) == 0

    def test_metadata_row_activations_ignored(self):
        tracker = self.make()
        meta_row = tracker.table.meta_row_of(0)
        assert tracker.on_activation(meta_row) is None

    def test_window_reset_clears_counts_and_cache(self):
        tracker = self.make(trh=100)
        for _ in range(30):
            tracker.on_activation(7)
        tracker.on_window_reset()
        assert tracker.table.read(7) == 0
        assert tracker.cache.hits + tracker.cache.misses > 0
        hit, _ = tracker.cache.access(0, make_dirty=False)
        assert not hit  # cache emptied (this access re-installed it)

    def test_sram_is_cache_plus_overhead(self):
        tracker = self.make(cache_bytes=64 * 1024)
        assert tracker.sram_bytes() == int(64 * 1024 * 1.25)

    def test_dram_reservation_positive(self):
        assert self.make().dram_reserved_bytes() > 0


def reference_on_activation(
    tracker: CraTracker, row_id: int
) -> Optional[TrackerResponse]:
    """``CraTracker.on_activation`` as it was before it became one frame,
    through ``RowCountTable``, ``_line_of``, ``_meta_row_of_line`` and
    ``LineMetadataCache.access``: the reference the fused body must
    match."""
    if tracker.table.is_meta_row(row_id):
        return None
    count = tracker.table.read(row_id) + 1
    mitigate: Tuple[int, ...] = ()
    if count >= tracker.threshold:
        tracker.mitigations += 1
        tracker.table.write(row_id, 0)
        mitigate = (row_id,)
    else:
        tracker.table.write(row_id, count)
    hit, dirty_victim = tracker.cache.access(
        tracker._line_of(row_id), make_dirty=True
    )
    if hit and not mitigate:
        return None
    meta: List[MetaAccess] = []
    if not hit:
        tracker.extra_read_lines += 1
        meta.append(
            MetaAccess(tracker._meta_row_of_line(tracker._line_of(row_id)), 1, False)
        )
        if dirty_victim is not None:
            tracker.extra_write_lines += 1
            meta.append(MetaAccess(tracker._meta_row_of_line(dirty_victim), 1, True))
    if not meta and not mitigate:
        return None
    return TrackerResponse(mitigate_rows=mitigate, meta_accesses=tuple(meta))


def _state(tracker: CraTracker):
    cache = tracker.cache
    return (
        cache.hits,
        cache.misses,
        cache.evictions,
        tracker.extra_read_lines,
        tracker.extra_write_lines,
        tracker.mitigations,
        list(tracker.table._counts),
        [list(cache_set.items()) for cache_set in cache._sets],
    )


#: Demand rows of both banks, rows sharing a counter line, and the
#: counter rows themselves (1020-1023 and 2044-2047), plus window resets.
CRA_EVENTS = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=2 * 1024 - 1),
        st.sampled_from([0, 1, 63, 64, 255, 256, 1019, 1020, 1023, 1024, 2047]),
        st.just(None),
    ),
    max_size=400,
)


@settings(max_examples=150, deadline=None)
@given(
    events=CRA_EVENTS,
    trh=st.integers(min_value=2, max_value=24),
    sets=st.sampled_from([1, 2, 4]),
    ways=st.sampled_from([1, 2, 4]),
)
def test_on_activation_matches_reference(events, trh, sets, ways):
    """Every response and every counter, the table and the cache's LRU
    order included, match the reference; a one-set cache evicts dirty
    lines from the first few distinct lines on."""
    fused, reference = (
        CraTracker(GEOMETRY, trh=trh, cache_bytes=sets * ways * 64, cache_ways=ways)
        for _ in range(2)
    )
    for row in events:
        if row is None:
            fused.on_window_reset()
            reference.on_window_reset()
        else:
            assert fused.on_activation(row) == reference_on_activation(reference, row)
    assert _state(fused) == _state(reference)
