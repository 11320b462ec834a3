"""Tests for the queued FR-FCFS controller."""

import pytest

from repro.core.config import HydraConfig
from repro.core.hydra import HydraTracker
from repro.dram.timing import DramGeometry, DramTiming
from repro.memctrl.controller import MemoryController
from repro.memctrl.queued import QueuedMemoryController

GEOMETRY = DramGeometry(
    channels=2,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)
TIMING = DramTiming().scaled(1 / 64)


def trace_of(rows, gap=10.0, lines=1, writes=None):
    writes = writes or [False] * len(rows)
    return [(gap, row, lines, w) for row, w in zip(rows, writes)]


def make(**kwargs) -> QueuedMemoryController:
    return QueuedMemoryController(GEOMETRY, TIMING, **kwargs)


class TestBasicExecution:
    def test_empty_trace(self):
        result = make().run_trace([], mlp=4)
        assert result.requests == 0
        assert result.end_time_ns == 0.0

    def test_counts_all_requests(self):
        result = make().run_trace(trace_of(list(range(40))), mlp=8)
        assert result.requests == 40
        assert result.end_time_ns > 0

    def test_comparable_to_fast_controller(self):
        """On a plain read stream the two controllers should land in
        the same ballpark (same banks, same timing)."""
        rows = [i % 128 for i in range(2000)]
        queued = make().run_trace(trace_of(rows, gap=5.0), mlp=16)
        fast = MemoryController(GEOMETRY, TIMING).run_trace(
            trace_of(rows, gap=5.0), mlp=16
        )
        assert queued.end_time_ns == pytest.approx(
            fast.end_time_ns, rel=0.35
        )

    def test_rejects_bad_mlp(self):
        with pytest.raises(ValueError):
            make().run_trace([], mlp=0)


class TestFrFcfs:
    def test_row_hits_served_out_of_order(self):
        """A younger row-hit request bypasses an older row-miss —
        the scheduler must record out-of-order picks."""
        # Bank 0 rows alternate (misses); one row repeats (hits).
        rows = []
        for i in range(16):
            rows.append((i * 7) % 512)  # churn
            rows.append(3)  # repeating row: hit candidate
        mc = make()
        mc.run_trace(trace_of(rows, gap=0.5), mlp=32)
        assert mc.stats.row_hit_first_picks > 0

    def test_queue_peak_reflects_mlp(self):
        mc = make()
        mc.run_trace(trace_of([i % 512 for i in range(64)], gap=0.1), mlp=32)
        assert mc.stats.read_queue_peak > 4


class TestWriteQueue:
    def test_writes_retire_immediately_into_queue(self):
        mc = make()
        result = mc.run_trace(
            trace_of([1, 2, 3], writes=[True, True, True]), mlp=4
        )
        assert result.requests == 3
        assert mc.stats.write_queue_peak >= 1

    def test_opportunistic_drain_when_reads_absent(self):
        mc = make()
        mc.run_trace(
            trace_of([1, 2], writes=[True, True]), mlp=4
        )
        assert mc.stats.opportunistic_writes >= 1

    def test_forced_drain_at_high_watermark(self):
        mc = make(write_queue_high=8, write_queue_low=2)
        rows = list(range(0, 480, 16))
        mc.run_trace(
            trace_of(rows, gap=1.0, writes=[True] * len(rows)), mlp=4
        )
        assert mc.stats.forced_write_drains >= 1

    def test_rejects_bad_watermarks(self):
        with pytest.raises(ValueError):
            make(write_queue_high=4, write_queue_low=4)


class TestFinalWriteDrain:
    def test_write_queues_flushed_at_end_of_trace(self):
        """Writes retire into the queue during execution; the residue
        must hit the banks before the result is computed."""
        mc = make()
        rows = list(range(0, 160, 4))
        result = mc.run_trace(
            trace_of(rows, gap=1.0, writes=[True] * len(rows)), mlp=8
        )
        assert all(not q for q in mc._write_queues)
        assert mc.stats.flushed_writes > 0
        # Every write actually reached a bank.
        activity = mc.activity()
        assert activity.write_lines == len(rows)
        assert result.end_time_ns > 0.0

    def test_flush_extends_end_time_past_last_read(self):
        mc = make()
        rows = list(range(0, 320, 4))
        writes = [True] * len(rows)
        writes[0] = False  # one read so end-of-trace isn't trivially 0
        result = mc.run_trace(trace_of(rows, gap=1.0, writes=writes), mlp=8)
        # The flushed writes complete after the lone read finished.
        assert result.end_time_ns == mc.end_time
        assert mc.activity().write_lines == len(rows) - 1

    def test_empty_trace_stays_zero(self):
        result = make().run_trace([], mlp=4)
        assert result.end_time_ns == 0.0

    def test_flush_drains_feedback_onto_an_earlier_channel(self):
        """A flushed write on channel 1 activates a row, and the tracker
        queues a metadata write on channel 0, which the flush has
        already walked. That write must still reach a bank."""
        mc = QueuedMemoryController(GEOMETRY, TIMING, MetaWriteTracker())
        rows = [2048 + 7 * i for i in range(20)]  # channel 1, bank 2
        mc.run_trace(trace_of(rows, gap=1.0, writes=[True] * len(rows)), mlp=4)
        assert all(not q for q in mc._write_queues)
        assert mc.stats.meta_writes == 20
        # 20 demand writes plus 20 one-line metadata writes.
        assert mc.activity().write_lines == 40
        # Row 5 activates once, then every metadata write hits it.
        assert mc.activity().activations == 21


class MetaWriteTracker:
    """Answers every channel-1 activation with a write to row 5."""

    name = "meta-write"
    reset_divisor = 1

    def __init__(self):
        from repro.interfaces import MetaAccess, TrackerResponse

        self._response = TrackerResponse(meta_accesses=(MetaAccess(5, 1, True),))

    def on_activation(self, row_id):
        if row_id >= 2 * GEOMETRY.rows_per_bank:
            return self._response
        return None

    def on_window_reset(self):
        pass

    def sram_bytes(self):
        return 0

    def mitigation_count(self):
        return 0

    def extra_stats(self):
        return {}


class DelayTracker:
    """Charges a fixed rate-control delay on every activation."""

    name = "delay"
    reset_divisor = 1

    def __init__(self, delay_ns):
        from repro.interfaces import TrackerResponse

        self._response = TrackerResponse(delay_ns=delay_ns)

    def on_activation(self, row_id):
        return self._response

    def on_window_reset(self):
        pass

    def sram_bytes(self):
        return 0

    def mitigation_count(self):
        return 0

    def extra_stats(self):
        return {}


class TestDelayPropagation:
    def test_delay_lands_in_stats_and_completion(self):
        rows = [i % 512 for i in range(100)]
        plain = make()
        plain.run_trace(trace_of(rows, gap=5.0), mlp=8)
        delayed = QueuedMemoryController(
            GEOMETRY, TIMING, DelayTracker(delay_ns=200.0)
        )
        result = delayed.run_trace(trace_of(rows, gap=5.0), mlp=8)
        assert delayed.stats.total_delay_ns > 0
        # Rate control must slow the run down, not be a silent no-op.
        assert result.end_time_ns > plain.end_time

    def test_delay_on_flushed_writes_counted(self):
        rows = list(range(0, 160, 4))
        mc = QueuedMemoryController(
            GEOMETRY, TIMING, DelayTracker(delay_ns=50.0)
        )
        mc.run_trace(
            trace_of(rows, gap=1.0, writes=[True] * len(rows)), mlp=8
        )
        assert mc.stats.flushed_writes > 0
        assert mc.stats.total_delay_ns >= 50.0 * mc.stats.flushed_writes


class TestTrackerIntegration:
    def test_hydra_mitigations_through_queued_path(self):
        config = HydraConfig(
            geometry=GEOMETRY, trh=100, gct_entries=16,
            rcc_entries=8, rcc_ways=4,
        )
        tracker = HydraTracker(config)
        mc = QueuedMemoryController(GEOMETRY, TIMING, tracker)
        rows = [500, 502] * 1500  # double-sided hammer
        mc.run_trace(trace_of(rows, gap=5.0), mlp=8)
        assert tracker.stats.mitigations > 0
        assert mc.stats.victim_refreshes >= 4 * tracker.stats.mitigations * 0.5

    def test_meta_writes_enter_write_queue(self):
        config = HydraConfig(
            geometry=GEOMETRY, trh=100, gct_entries=16,
            rcc_entries=8, rcc_ways=4, enable_rcc=False,
        )
        tracker = HydraTracker(config)
        mc = QueuedMemoryController(GEOMETRY, TIMING, tracker)
        rows = [500, 502] * 400
        mc.run_trace(trace_of(rows, gap=5.0), mlp=8)
        assert mc.stats.meta_writes > 0
        assert mc.stats.meta_reads > 0

    def test_window_reset_fires(self):
        tracker = HydraTracker(
            HydraConfig(
                geometry=GEOMETRY, trh=100, gct_entries=16,
                rcc_entries=8, rcc_ways=4,
            )
        )
        mc = QueuedMemoryController(GEOMETRY, TIMING, tracker)
        gap = TIMING.refresh_window / 100
        mc.run_trace(trace_of([i % 64 for i in range(300)], gap=gap), mlp=4)
        assert mc.stats.window_resets >= 2
