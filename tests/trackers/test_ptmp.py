"""Tests for the PTMP (PrIDE probabilistic FIFO) tracker."""

import pytest

from repro.dram.timing import DramGeometry, DramTiming
from repro.trackers.mint import mint_interval_slots
from repro.trackers.ptmp import (
    DEFAULT_PTMP_ENTRIES,
    DEFAULT_PTMP_PROBABILITY,
    PtmpTracker,
)

GEOMETRY = DramGeometry(
    channels=1,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)


class TestConstruction:
    def test_defaults_follow_pride(self):
        tracker = PtmpTracker(GEOMETRY)
        assert tracker.entries == DEFAULT_PTMP_ENTRIES == 5
        assert tracker.probability == DEFAULT_PTMP_PROBABILITY == 0.125
        assert tracker.interval_slots == mint_interval_slots(DramTiming())

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PtmpTracker(GEOMETRY, entries=0)
        with pytest.raises(ValueError):
            PtmpTracker(GEOMETRY, probability=0.0)
        with pytest.raises(ValueError):
            PtmpTracker(GEOMETRY, probability=1.5)
        with pytest.raises(ValueError):
            PtmpTracker(GEOMETRY, interval_slots=0)


class TestBehaviour:
    def make(self, **kwargs) -> PtmpTracker:
        kwargs.setdefault("interval_slots", 8)
        kwargs.setdefault("seed", 1)
        return PtmpTracker(GEOMETRY, **kwargs)

    def test_certain_insertion_drains_on_cadence(self):
        """With p=1 and one hot row, every interval's drain mitigates
        the hot row — the probabilistic machinery degenerates to a
        deterministic FIFO."""
        tracker = self.make(probability=1.0)
        mitigated = []
        for _ in range(80):
            response = tracker.on_activation(5)
            if response:
                mitigated.extend(response.mitigate_rows)
        assert mitigated == [5] * 10
        assert tracker.mitigations == 10
        assert tracker.insertions == 80

    def test_fifo_capacity_evicts_oldest(self):
        tracker = self.make(probability=1.0, entries=2, interval_slots=100)
        for row in (1, 2, 3):
            tracker.on_activation(row)
        assert tracker.evictions == 1
        assert list(tracker._banks[0].fifo) == [2, 3]

    def test_empty_fifo_drain_is_counted_not_mitigated(self):
        # Probability so small no insertion happens in one interval.
        tracker = self.make(probability=1e-12)
        for _ in range(8):
            assert tracker.on_activation(5) is None
        assert tracker.empty_drains == 1
        assert tracker.mitigations == 0

    def test_banks_clock_independently(self):
        tracker = self.make(probability=1.0)
        other = GEOMETRY.rows_per_bank + 7
        for _ in range(8):
            tracker.on_activation(5)
        assert tracker.mitigations == 1
        for _ in range(7):
            assert tracker.on_activation(other) is None
        response = tracker.on_activation(other)
        assert response is not None and response.mitigate_rows == (other,)

    def test_deterministic_under_seed(self):
        runs = []
        for _ in range(2):
            tracker = self.make(seed=42)
            log = []
            for i in range(400):
                response = tracker.on_activation(i % 13)
                log.append(response.mitigate_rows if response else None)
            runs.append(log)
        assert runs[0] == runs[1]

    def test_window_reset_clears_state(self):
        tracker = self.make(probability=1.0)
        for _ in range(5):
            tracker.on_activation(5)
        tracker.on_window_reset()
        assert not tracker._banks[0].fifo
        for _ in range(7):
            assert tracker.on_activation(5) is None

    def test_sram_stays_tiny(self):
        """The PrIDE headline: a handful of row ids per bank, far below
        any threshold-scaled CAM."""
        tracker = PtmpTracker(GEOMETRY)
        row_bits = (GEOMETRY.rows_per_bank - 1).bit_length()
        slot_bits = (tracker.interval_slots - 1).bit_length()
        per_bank_bits = DEFAULT_PTMP_ENTRIES * row_bits + slot_bits
        expected = (per_bank_bits * GEOMETRY.total_banks + 7) // 8
        assert tracker.sram_bytes() == expected

    def test_extra_stats_surface_counters(self):
        tracker = self.make(probability=1.0)
        for _ in range(8):
            tracker.on_activation(5)
        stats = tracker.extra_stats()
        assert stats["insertions"] == 8
        assert stats["interval_slots"] == 8


class TestRegistration:
    def test_registered_as_probabilistic(self):
        from repro.trackers.registry import (
            available_trackers,
            tracker_info,
        )

        assert "ptmp" in available_trackers()
        info = tracker_info("ptmp")
        assert info.security_class == "probabilistic"

    def test_buildable_from_spec(self):
        from repro.sim.config import SystemConfig
        from repro.trackers.registry import build_tracker

        ctx = SystemConfig(scale=1 / 256)
        tracker = build_tracker(
            "ptmp@entries=7,probability=0.25,interval_slots=16", ctx
        )
        assert isinstance(tracker, PtmpTracker)
        assert tracker.entries == 7
        assert tracker.probability == 0.25
        assert tracker.interval_slots == 16
