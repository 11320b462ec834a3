"""Tests for the shared tracker-feedback machinery.

Both controllers delegate the feedback worklist and the window-reset
cadence to :mod:`repro.memctrl.feedback`; these tests exercise the
helpers in isolation and then prove the two controllers agree on a
feedback-heavy scenario (the point of extracting the duplication).
"""

import pytest

from repro.dram.timing import DramGeometry, DramTiming
from repro.interfaces import ActivationTracker, MetaAccess, TrackerResponse
from repro.memctrl.controller import MemoryController
from repro.memctrl.feedback import TrackerFeedback, WindowResetSchedule
from repro.memctrl.mitigation import VictimRefreshPolicy
from repro.dram.address import AddressMapper
from repro.memctrl.queued import QueuedMemoryController
from tests.memctrl.test_controller import access

GEOMETRY = DramGeometry(
    channels=2,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)
TIMING = DramTiming().scaled(1 / 64)


class ScriptedTracker(ActivationTracker):
    """Returns a scripted response per reported activation."""

    name = "scripted"

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


class CountingHandler:
    """Minimal FeedbackHandler: records calls, scriptable feedback."""

    def __init__(self, meta_activates=True, refresh_feeds_back=True):
        self.activations = []
        self.meta = []
        self.refreshes = []
        self.meta_activates = meta_activates
        self.refresh_feeds_back = refresh_feeds_back

    def on_tracker_activation(self, row_id):
        self.activations.append(row_id)

    def perform_meta_access(self, meta, at):
        self.meta.append(meta.row_id)
        return self.meta_activates

    def perform_victim_refresh(self, victim_row, at):
        self.refreshes.append(victim_row)
        return self.refresh_feeds_back


def feedback_for(tracker, max_depth=4):
    policy = VictimRefreshPolicy(AddressMapper(GEOMETRY), blast_radius=2)
    return TrackerFeedback(tracker, policy, max_depth)


class TestTrackerFeedback:
    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError, match="max_feedback_depth"):
            feedback_for(ScriptedTracker(), max_depth=0)

    def test_silent_tracker_single_report(self):
        tracker = ScriptedTracker()
        handler = CountingHandler()
        assert feedback_for(tracker).drive(7, 0.0, handler) == 0.0
        assert tracker.seen == [7]
        assert handler.activations == [7]
        assert handler.meta == [] and handler.refreshes == []

    def test_meta_activation_fed_back(self):
        script = {0: TrackerResponse(meta_accesses=(MetaAccess(512, 1, False),))}
        tracker = ScriptedTracker(script)
        handler = CountingHandler(meta_activates=True)
        feedback_for(tracker).drive(1, 0.0, handler)
        assert tracker.seen == [1, 512]

    def test_deferred_meta_not_fed_back(self):
        script = {0: TrackerResponse(meta_accesses=(MetaAccess(512, 1, True),))}
        tracker = ScriptedTracker(script)
        handler = CountingHandler(meta_activates=False)
        feedback_for(tracker).drive(1, 0.0, handler)
        assert tracker.seen == [1]
        assert handler.meta == [512]

    def test_victims_fed_back_through_policy(self):
        tracker = ScriptedTracker({0: TrackerResponse(mitigate_rows=(100,))})
        handler = CountingHandler()
        feedback_for(tracker).drive(100, 0.0, handler)
        assert handler.refreshes == [98, 99, 101, 102]
        assert set(tracker.seen) == {100, 98, 99, 101, 102}

    def test_depth_bound_stops_infinite_chains(self):
        """A tracker that always requests metadata would loop forever
        without the depth bound."""
        class ChattyTracker(ScriptedTracker):
            def on_activation(self, row_id):
                self.seen.append(row_id)
                return TrackerResponse(
                    meta_accesses=(MetaAccess(512, 1, False),)
                )

        tracker = ChattyTracker()
        handler = CountingHandler(meta_activates=True)
        feedback_for(tracker, max_depth=3).drive(1, 0.0, handler)
        # Root (depth 0) plus chained reports at depth 1..3.
        assert len(tracker.seen) == 4

    def test_delays_accumulate_across_worklist(self):
        script = {
            0: TrackerResponse(
                delay_ns=100.0, mitigate_rows=(50,)
            ),
            1: TrackerResponse(delay_ns=25.0),
        }
        tracker = ScriptedTracker(script)
        total = feedback_for(tracker).drive(50, 0.0, CountingHandler())
        assert total == 125.0


class TestWindowResetSchedule:
    def test_default_period_is_refresh_window(self):
        schedule = WindowResetSchedule(TIMING, ScriptedTracker())
        assert schedule.period == TIMING.refresh_window
        assert not schedule.due(0.5 * TIMING.refresh_window)
        assert schedule.due(TIMING.refresh_window)

    def test_reset_divisor_shortens_period(self):
        class HalfWindow(ScriptedTracker):
            reset_divisor = 2

        schedule = WindowResetSchedule(TIMING, HalfWindow())
        assert schedule.period == TIMING.refresh_window / 2

    def test_advance_fires_every_elapsed_reset(self):
        tracker = ScriptedTracker()
        schedule = WindowResetSchedule(TIMING, tracker)
        fired = schedule.advance(3.5 * TIMING.refresh_window, tracker)
        assert fired == 3
        assert tracker.resets == 3
        assert not schedule.due(3.9 * TIMING.refresh_window)
        assert schedule.due(4.0 * TIMING.refresh_window)


class TestControllerParity:
    """Both controllers must drive identical tracker feedback."""

    SCRIPT = {
        0: TrackerResponse(meta_accesses=(MetaAccess(512, 1, False),)),
        2: TrackerResponse(
            mitigate_rows=(100,),
            meta_accesses=(MetaAccess(600, 2, True),),
        ),
        5: TrackerResponse(mitigate_rows=(300, 2000)),
        9: TrackerResponse(meta_accesses=(MetaAccess(1500, 1, False),)),
    }
    ROWS = (100, 100, 300, 7, 2000, 100, 300, 7)

    def drive(self, controller, tracker):
        at = 0.0
        for row in self.ROWS:
            controller._report_activation(row, at)
            at += 100.0
        window = TIMING.refresh_window
        for t in (1.2 * window, 3.7 * window):
            controller._advance_window(t)
        return tracker

    def test_identical_feedback_stats(self):
        fast_tracker = ScriptedTracker(dict(self.SCRIPT))
        queued_tracker = ScriptedTracker(dict(self.SCRIPT))
        fast = MemoryController(GEOMETRY, TIMING, fast_tracker)
        queued = QueuedMemoryController(GEOMETRY, TIMING, queued_tracker)

        self.drive(fast, fast_tracker)
        self.drive(queued, queued_tracker)

        # Both controllers reported the same activation stream...
        assert fast_tracker.seen == queued_tracker.seen
        assert fast_tracker.resets == queued_tracker.resets
        # ...and agree on every shared counter.
        assert (
            fast.stats.tracker_activations == queued.stats.tracker_activations
        )
        assert fast.stats.victim_refreshes == queued.stats.victim_refreshes
        assert fast.stats.window_resets == queued.stats.window_resets
        assert fast.stats.meta_accesses == (
            queued.stats.meta_reads + queued.stats.meta_writes
        )
        # The scenario actually exercised the feedback machinery.
        assert fast.stats.victim_refreshes > 0
        assert fast.stats.meta_accesses > 0
        assert fast.stats.window_resets == 3

    def test_bus_utilization_clamped_on_both(self):
        fast = MemoryController(GEOMETRY, TIMING)
        queued = QueuedMemoryController(GEOMETRY, TIMING)
        t = 0.0
        for i in range(50):
            t = access(fast, t, row_id=i, n_lines=8)
        queued.run_trace(
            [(0.1, i, 8, False) for i in range(50)], mlp=16
        )
        assert 0.0 < fast.bus_utilization() <= 1.0
        assert 0.0 < queued.bus_utilization() <= 1.0
