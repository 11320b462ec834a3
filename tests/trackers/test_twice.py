"""Tests for the TWiCE pruned-table tracker."""

import pytest

from repro.analysis.security import verify_tracker
from repro.attacks import compile_program, resolve
from repro.attacks.programs import (
    double_sided_program,
    many_sided_program,
    thrash_then_hammer_program,
)
from repro.dram.timing import DramGeometry, DramTiming
from repro.trackers.twice import TwiceTracker

GEOMETRY = DramGeometry(
    channels=1,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)
TIMING = DramTiming().scaled(1 / 64)


def make(trh=100, entries=128, prune_interval=64) -> TwiceTracker:
    return TwiceTracker(
        GEOMETRY,
        trh=trh,
        timing=TIMING,
        entries_per_bank=entries,
        prune_interval_acts=prune_interval,
    )


class TestTracking:
    def test_mitigates_at_half_trh(self):
        tracker = make(trh=100)
        responses = [tracker.on_activation(5) for _ in range(50)]
        assert responses[-1].mitigate_rows == (5,)
        assert all(r is None for r in responses[:-1])

    def test_counts_are_per_bank(self):
        tracker = make(trh=100)
        other = GEOMETRY.rows_per_bank + 5
        for _ in range(49):
            tracker.on_activation(5)
        assert tracker.on_activation(other) is None

    def test_window_reset_clears(self):
        tracker = make(trh=100)
        for _ in range(49):
            tracker.on_activation(5)
        tracker.on_window_reset()
        assert tracker.on_activation(5) is None
        assert tracker.occupancy() == 1


class TestPruning:
    def make_tight_window(self, budget_acts=700, trh=100, entries=2048):
        """A timing whose per-bank activation budget is tiny, so the
        sound pruning rule actually has room to fire."""
        window_scale = budget_acts / DramTiming().max_activations_per_window()
        return TwiceTracker(
            GEOMETRY,
            trh=trh,
            timing=DramTiming().scaled(window_scale),
            entries_per_bank=entries,
            prune_interval_acts=64,
        )

    def test_nothing_prunable_early_at_ultra_low_threshold(self):
        """The paper's §2.4 point: with a huge remaining activation
        budget, no touched row can be ruled out, so TWiCE's table
        degenerates toward per-row tracking."""
        tracker = make(entries=2048, prune_interval=64)
        for row in range(600):
            tracker.on_activation(row)
        assert tracker.pruned_entries() == 0
        assert tracker.occupancy() == 600

    def test_hopeless_rows_pruned_near_window_end(self):
        tracker = self.make_tight_window(budget_acts=400, trh=100)
        # One-touch rows: past ~350 of the 400-activation budget, a
        # 1-count row provably cannot reach T_H = 50 and is pruned.
        for row in range(390):
            tracker.on_activation(row)
        assert tracker.pruned_entries() > 0
        assert tracker.occupancy() < 390

    def test_viable_aggressor_survives_pruning(self):
        tracker = self.make_tight_window(budget_acts=700, trh=100)
        for i in range(320):
            tracker.on_activation(5)
            tracker.on_activation(100 + i)  # one-touch noise
        resident = 5 in tracker._tables[0].entries
        assert resident or tracker.mitigations > 0


class TestOverflow:
    def test_full_table_inherits_min_count(self):
        """Space-Saving-style displacement keeps soundness when the
        table is under-provisioned."""
        tracker = make(entries=4, prune_interval=10_000)
        for row in range(4):
            for _ in range(5):
                tracker.on_activation(row)
        # A new row displaces the minimum and inherits its count.
        tracker.on_activation(999)
        assert tracker._tables[0].entries[999] == 6

    def test_security_with_tiny_table(self):
        tracker = make(trh=100, entries=4, prune_interval=10_000)
        seq = compile_program(
            resolve(
                thrash_then_hammer_program(
                    5, list(range(100, 160)), hammers=400, interleave=2
                )
            )
        )
        report = verify_tracker(tracker, GEOMETRY, seq, 50)
        assert report.secure


class TestSecurity:
    def test_double_sided(self):
        report = verify_tracker(
            make(trh=100),
            GEOMETRY,
            compile_program(resolve(double_sided_program(500, 800))),
            50,
        )
        assert report.secure

    def test_many_sided(self):
        seq = compile_program(
            resolve(many_sided_program(list(range(50, 80)), rounds=100))
        )
        report = verify_tracker(make(trh=100), GEOMETRY, seq, 50)
        assert report.secure


class TestValidation:
    def test_rejects_bad_prune_interval(self):
        with pytest.raises(ValueError):
            make(prune_interval=0)

    def test_default_sizing_positive(self):
        tracker = TwiceTracker(GEOMETRY, trh=500)
        assert tracker.sram_bytes() > 0
