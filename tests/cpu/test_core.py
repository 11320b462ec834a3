"""Tests for the limited-MLP core model: the fast engine's window.

``MemoryController.run_trace(trace, mlp)`` issues requests in program
order with at most ``mlp`` in flight, each no earlier than its gap
after the previous issue.
"""

import pytest

from repro.dram.timing import DramGeometry, DramTiming
from repro.memctrl.controller import MemoryController

GEOMETRY = DramGeometry(
    channels=2,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)
TIMING = DramTiming().scaled(1 / 64)


def make_controller() -> MemoryController:
    return MemoryController(GEOMETRY, TIMING)


def trace_of(rows, gap=10.0, lines=1):
    return [(gap, row, lines, False) for row in rows]


class TestRun:
    def test_empty_trace(self):
        result = make_controller().run_trace([], mlp=4)
        assert result.end_time_ns == 0.0
        assert result.requests == 0

    def test_counts_requests_and_latency(self):
        result = make_controller().run_trace(trace_of([1, 2, 3]), mlp=4)
        assert result.requests == 3
        assert result.total_latency_ns > 0
        assert result.average_latency_ns == pytest.approx(
            result.total_latency_ns / 3
        )

    def test_compute_bound_trace_paced_by_gaps(self):
        """Huge gaps: end time is the sum of gaps, memory hides."""
        gap = 10_000.0
        n = 20
        result = make_controller().run_trace(trace_of(range(n), gap=gap), mlp=8)
        assert result.end_time_ns == pytest.approx(n * gap, rel=0.05)

    def test_memory_bound_trace_limited_by_mlp(self):
        """Tiny gaps to one bank: time set by tRC serialization."""
        n = 100
        result = make_controller().run_trace(
            trace_of([i % 50 for i in range(n)], gap=0.1), mlp=2
        )
        # Bank 0 must ACT each request, tRC apart.
        assert result.end_time_ns >= (n - 1) * TIMING.t_rc * 0.9

    def test_larger_mlp_is_never_slower(self):
        rows = [i % 64 for i in range(400)]
        small = make_controller().run_trace(trace_of(rows, gap=1.0), mlp=2)
        large = make_controller().run_trace(trace_of(rows, gap=1.0), mlp=16)
        assert large.end_time_ns <= small.end_time_ns

    def test_rejects_bad_mlp(self):
        with pytest.raises(ValueError):
            make_controller().run_trace([], mlp=0)
