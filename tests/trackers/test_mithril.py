"""Tests for the Mithril RFM-driven tracker."""

import pytest

from repro.analysis.security import verify_tracker
from repro.attacks import compile_program, resolve
from repro.attacks.programs import (
    double_sided_program,
    many_sided_program,
    single_sided_program,
)
from repro.dram.timing import DramGeometry, DramTiming
from repro.trackers.mithril import MithrilTracker

GEOMETRY = DramGeometry(
    channels=1,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)
TIMING = DramTiming().scaled(1 / 64)


def make(trh=100, rfm_interval=10, entries=64) -> MithrilTracker:
    return MithrilTracker(
        GEOMETRY,
        trh=trh,
        timing=TIMING,
        rfm_interval=rfm_interval,
        entries_per_bank=entries,
    )


class TestRfmMitigation:
    def test_hottest_row_mitigated_at_rfm(self):
        tracker = make(rfm_interval=10)
        mitigated = []
        for _ in range(10):
            response = tracker.on_activation(5)
            if response:
                mitigated.extend(response.mitigate_rows)
        assert mitigated == [5]
        assert tracker.rfm_commands == 1

    def test_rfm_cadence_is_per_bank(self):
        tracker = make(rfm_interval=10)
        other_bank = GEOMETRY.rows_per_bank + 7
        for _ in range(9):
            tracker.on_activation(5)
            tracker.on_activation(other_bank)
        assert tracker.rfm_commands == 0
        tracker.on_activation(5)
        assert tracker.rfm_commands == 1

    def test_threshold_backstop_fires_between_rfms(self):
        tracker = make(trh=20, rfm_interval=1000, entries=64)
        responses = [tracker.on_activation(5) for _ in range(10)]
        assert any(r and 5 in r.mitigate_rows for r in responses)

    def test_window_reset(self):
        tracker = make()
        for _ in range(5):
            tracker.on_activation(5)
        tracker.on_window_reset()
        assert tracker._tables[0].counts == {}
        assert tracker._acts_since_rfm[0] == 0


class TestSecurity:
    def test_single_aggressor(self):
        report = verify_tracker(
            make(trh=100, rfm_interval=12),
            GEOMETRY,
            compile_program(resolve(single_sided_program(5, 2000))),
            50,
        )
        assert report.secure

    def test_many_sided(self):
        tracker = make(trh=100, rfm_interval=12, entries=128)
        seq = compile_program(
            resolve(many_sided_program(list(range(100, 132)), rounds=120))
        )
        report = verify_tracker(tracker, GEOMETRY, seq, 50)
        assert report.secure

    def test_unmitigated_counts_bounded_by_rfm_arithmetic(self):
        """Mithril's bound: with the immediate backstop, no row's
        unmitigated true count passes T_H."""
        tracker = make(trh=100, rfm_interval=25)
        seq = compile_program(resolve(double_sided_program(500, 1200)))
        report = verify_tracker(tracker, GEOMETRY, seq, 50)
        assert report.secure
        assert report.max_unmitigated_count <= 50


class TestSizing:
    def test_default_interval_quarter_threshold(self):
        tracker = MithrilTracker(GEOMETRY, trh=500, timing=TIMING)
        assert tracker.rfm_interval == 250 // 4

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            MithrilTracker(GEOMETRY, trh=100, timing=TIMING, rfm_interval=0)

    def test_sram_scales_with_entries(self):
        small = make(entries=32)
        large = make(entries=64)
        assert large.sram_bytes() == 2 * small.sram_bytes()
