"""Tests for the memory controller and its tracker feedback loop."""

import pytest

from repro.core.config import HydraConfig
from repro.core.hydra import HydraTracker
from repro.dram.timing import DramGeometry, DramTiming
from repro.interfaces import ActivationTracker, MetaAccess, TrackerResponse
from repro.memctrl.controller import MemoryController
from repro.trackers.ocpr import OcprTracker

GEOMETRY = DramGeometry(
    channels=2,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)
TIMING = DramTiming().scaled(1 / 64)  # 1 ms window


class RecordingTracker(ActivationTracker):
    """Scriptable tracker for controller-behaviour tests."""

    name = "recording"

    def __init__(self, script=None):
        self.seen = []
        self.resets = 0
        self.script = script or {}

    def on_activation(self, row_id):
        self.seen.append(row_id)
        return self.script.get(len(self.seen) - 1)

    def on_window_reset(self):
        self.resets += 1

    def sram_bytes(self):
        return 0


def make_controller(tracker=None, **kwargs) -> MemoryController:
    return MemoryController(GEOMETRY, TIMING, tracker, **kwargs)


def access(mc, at, row_id, n_lines=1, is_write=False):
    """One demand access issued at ``at``; returns its completion time."""
    return mc.run_trace([(at, row_id, n_lines, is_write)], mlp=1).end_time_ns


class TestDemandPath:
    def test_access_returns_increasing_completions(self):
        mc = make_controller()
        t1 = access(mc, 0.0, row_id=1)
        t2 = access(mc, t1, row_id=2)
        assert t2 > t1

    def test_activations_reported_to_tracker(self):
        tracker = RecordingTracker()
        mc = make_controller(tracker)
        access(mc, 0.0, row_id=5)
        access(mc, 10_000.0, row_id=5)  # row hit: no ACT, not reported
        access(mc, 20_000.0, row_id=6)
        assert tracker.seen == [5, 6]

    def test_banks_operate_in_parallel(self):
        mc = make_controller()
        t_same = max(
            access(mc, 0.0, row_id=1), access(mc, 0.0, row_id=2)
        )
        mc2 = make_controller()
        t_diff = max(
            access(mc2, 0.0, row_id=1),
            access(mc2, 0.0, row_id=1024 + 1),  # other bank
        )
        assert t_diff < t_same

    def test_end_time_tracks_max_completion(self):
        mc = make_controller()
        done = access(mc, 0.0, row_id=1)
        assert mc.end_time == done


class TestTrackerFeedback:
    def test_meta_read_performed_on_bank(self):
        script = {0: TrackerResponse(meta_accesses=(MetaAccess(512, 1, False),))}
        mc = make_controller(RecordingTracker(script))
        access(mc, 0.0, row_id=1)
        assert mc.stats.meta_accesses == 1
        assert mc.stats.meta_line_transfers == 1

    def test_meta_activation_fed_back(self):
        """An ACT caused by metadata must itself be tracked (§5.2.2)."""
        tracker = RecordingTracker(
            {0: TrackerResponse(meta_accesses=(MetaAccess(512, 1, False),))}
        )
        mc = make_controller(tracker)
        access(mc, 0.0, row_id=1)
        assert tracker.seen == [1, 512]

    def test_deferred_meta_write_skips_bank(self):
        tracker = RecordingTracker(
            {0: TrackerResponse(meta_accesses=(MetaAccess(512, 1, True),))}
        )
        mc = make_controller(tracker)
        access(mc, 0.0, row_id=1)
        assert tracker.seen == [1]  # no ACT reported for the write
        assert mc.stats.meta_accesses == 1
        # The write costs a bus slot, but no bank sees it.
        assert mc.activity().activations == 1

    def test_mitigation_refreshes_blast_radius_victims(self):
        tracker = RecordingTracker({0: TrackerResponse(mitigate_rows=(100,))})
        mc = make_controller(tracker, blast_radius=2)
        access(mc, 0.0, row_id=100)
        assert mc.stats.victim_refreshes == 4
        # Victim activations are fed back into tracking (§5.2.1).
        assert set(tracker.seen) == {100, 98, 99, 101, 102}

    def test_mitigation_feedback_can_be_disabled(self):
        tracker = RecordingTracker({0: TrackerResponse(mitigate_rows=(100,))})
        mc = make_controller(tracker, count_mitigation_acts=False)
        access(mc, 0.0, row_id=100)
        assert tracker.seen == [100]
        assert mc.stats.victim_refreshes == 4

    def test_delay_extends_completion(self):
        tracker = RecordingTracker({0: TrackerResponse(delay_ns=5000.0)})
        mc = make_controller(tracker)
        baseline = access(make_controller(), 0.0, row_id=1)
        delayed = access(mc, 0.0, row_id=1)
        assert delayed == pytest.approx(baseline + 5000.0)
        assert mc.stats.total_delay_ns == 5000.0


class TestWindowManagement:
    def test_reset_fires_each_window(self):
        tracker = RecordingTracker()
        mc = make_controller(tracker)
        window = TIMING.refresh_window
        access(mc, 0.5 * window, row_id=1)
        assert tracker.resets == 0
        access(mc, 1.5 * window, row_id=2)
        assert tracker.resets == 1
        access(mc, 3.5 * window, row_id=3)
        assert tracker.resets == 3

    def test_reset_divisor_honoured(self):
        class HalfWindowTracker(RecordingTracker):
            reset_divisor = 2

        tracker = HalfWindowTracker()
        mc = make_controller(tracker)
        access(mc, TIMING.refresh_window * 1.1, row_id=1)
        assert tracker.resets == 2


class TestEndToEndHydra:
    def test_hammering_through_controller_triggers_mitigations(self):
        config = HydraConfig(
            geometry=GEOMETRY, trh=100, gct_entries=16,
            rcc_entries=8, rcc_ways=4,
        )
        tracker = HydraTracker(config)
        mc = make_controller(tracker)
        t = 0.0
        for _ in range(400):
            t = access(mc, t, row_id=7)
            mc.banks[0].precharge_all()  # force each access to activate
        assert tracker.stats.mitigations >= 400 // config.th - 1
        assert mc.stats.victim_refreshes > 0

    def test_ocpr_through_controller(self):
        tracker = OcprTracker(GEOMETRY, trh=100)
        mc = make_controller(tracker)
        t = 0.0
        for _ in range(60):
            t = access(mc, t, row_id=7)
            mc.banks[0].precharge_all()
        assert tracker.mitigations == 1


class TestReporting:
    def test_activity_merges_all_banks(self):
        mc = make_controller()
        access(mc, 0.0, row_id=1)
        access(mc, 0.0, row_id=1024 + 1)
        assert mc.activity().activations == 2

    def test_refresh_count_scales_with_time(self):
        mc = make_controller()
        access(mc, 10 * TIMING.t_refi, row_id=1)
        ranks = GEOMETRY.channels * GEOMETRY.ranks_per_channel
        assert mc.total_refreshes() >= 10 * ranks

    def test_bus_utilization_bounded(self):
        mc = make_controller()
        t = 0.0
        for i in range(50):
            t = access(mc, t, row_id=i, n_lines=4)
        assert 0.0 < mc.bus_utilization() <= 1.0
