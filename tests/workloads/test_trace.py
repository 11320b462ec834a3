"""Tests for the Trace container and Table-3 characterization."""

import sys
import threading
import tracemalloc
from collections import deque

import numpy as np
import pytest

from repro.memctrl.base import _resolve
from repro.workloads import trace as trace_module
from repro.workloads.trace import (
    LineTotals,
    Trace,
    characterize,
    statistics_by_window,
)


class TestTraceContainer:
    def test_from_rows(self):
        trace = Trace.from_rows([1, 2, 3], gap_ns=5.0, n_lines=2)
        assert len(trace) == 3
        assert trace.total_lines == 6
        assert trace.duration_hint_ns == pytest.approx(15.0)

    def test_iteration_yields_tuples(self):
        trace = Trace.from_rows([7], gap_ns=3.0)
        items = list(trace)
        assert items == [(3.0, 7, 1, False)]

    def test_concatenate(self):
        a = Trace.from_rows([1, 2])
        b = Trace.from_rows([3])
        combined = Trace.concatenate([a, b], name="both")
        assert len(combined) == 3
        assert combined.rows.tolist() == [1, 2, 3]
        assert combined.name == "both"

    def test_concatenate_empty_rejected(self):
        with pytest.raises(ValueError):
            Trace.concatenate([])

    def test_concatenate_resolves_like_its_parts(self):
        """The joined trace keeps its inputs' arrays as parts (no copy)
        and streams exactly like the parts back-to-back."""
        a = Trace.from_rows([1, 130, 257], gap_ns=5.0)
        b = Trace.from_rows([384, 2, 511], gap_ns=7.0)
        combined = Trace.concatenate([a, b])
        assert np.shares_memory(next(combined.chunks()).rows, a.rows)
        expected = list(a.resolved_stream(128, LineTotals())) + list(
            b.resolved_stream(128, LineTotals())
        )
        assert list(combined.resolved_stream(128, LineTotals())) == expected
        assert list(combined) == list(a) + list(b)
        assert combined.rows.tolist() == [1, 130, 257, 384, 2, 511]
        assert combined.nbytes == a.nbytes + b.nbytes

    def test_chunks_are_bounded_views(self, monkeypatch):
        """Replay walks each part in slices of at most
        DEFAULT_STREAM_CHUNK requests, without copying."""
        monkeypatch.setattr("repro.workloads.trace.DEFAULT_STREAM_CHUNK", 4)
        a = Trace.from_rows(list(range(10)))
        b = Trace.from_rows([20, 21])
        combined = Trace.concatenate([a, b])
        chunks = list(combined.chunks())
        assert [len(chunk) for chunk in chunks] == [4, 4, 2, 2]
        assert all(np.shares_memory(c.rows, a.rows) for c in chunks[:3])
        assert list(combined.resolved_stream(4, LineTotals())) == list(
            Trace(combined.gaps_ns, combined.rows, combined.lines,
                  combined.writes).resolved_stream(4, LineTotals())
        )

    def test_concurrent_replays_of_many_traces_stay_exact(self):
        """Thread pools replay different traces at once; every replay
        must still stream its own trace exactly."""
        rng = np.random.default_rng(7)
        traces = [
            Trace.from_rows(rng.integers(0, 4096, 500).tolist(), gap_ns=g)
            for g in (3.0, 5.0, 7.0, 11.0, 13.0, 17.0)
        ]
        expected = [
            list(Trace(t.gaps_ns, t.rows, t.lines, t.writes).resolved_stream(128, LineTotals()))
            for t in traces
        ]
        mismatches = []

        def replay(index):
            for _ in range(20):
                if list(traces[index].resolved_stream(128, LineTotals())) != expected[index]:
                    mismatches.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=replay, args=(i % len(traces),))
                for i in range(12)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert mismatches == []

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            Trace(
                gaps_ns=np.zeros(2),
                rows=np.zeros(3, dtype=np.int64),
                lines=np.ones(3, dtype=np.int32),
                writes=np.zeros(3, dtype=bool),
            )

    def test_save_load_roundtrip(self, tmp_path):
        trace = Trace.from_rows([5, 6, 7], gap_ns=2.5, name="t")
        path = str(tmp_path / "trace.npz")
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.rows.tolist() == [5, 6, 7]
        assert loaded.gaps_ns.tolist() == [2.5] * 3


def _random_trace(n, seed, parts=1):
    """``n`` random requests, joined from ``parts`` traces."""
    rng = np.random.default_rng(seed)
    pieces = [
        Trace(
            gaps_ns=rng.uniform(0.0, 20.0, size),
            rows=rng.integers(0, 4096, size),
            lines=rng.integers(1, 5, size),
            writes=rng.random(size) < 0.3,
        )
        for size in np.diff(np.linspace(0, n, parts + 1).astype(int))
    ]
    return Trace.concatenate(pieces)


def _fresh(trace, rows_per_bank):
    """What the scalar twin yields for ``trace``'s plain tuples, and
    its totals."""
    totals = LineTotals()
    tuples = list(_resolve(list(trace), rows_per_bank, totals))
    return tuples, (totals.requests, totals.lines, totals.write_lines)


def _replay(trace, rows_per_bank):
    totals = LineTotals()
    tuples = list(trace.resolved_stream(rows_per_bank, totals))
    return tuples, (totals.requests, totals.lines, totals.write_lines)


class TestHeldColumns:
    """A ``Trace`` holds its columns read-only, and every replay reads
    them through its own lazy views: repeated and concurrent replays
    stream exactly what the scalar twin does, and a replay builds no
    per-slice Python columns."""

    @pytest.mark.parametrize("parts", [1, 3])
    def test_back_to_back_replays_match_a_fresh_stream(self, parts):
        trace = _random_trace(2000, seed=1, parts=parts)
        expected = _fresh(trace, 128)
        for _ in range(5):
            assert _replay(trace, 128) == expected

    def test_requests_cannot_change_under_held_columns(self):
        rows = np.arange(10)
        trace = Trace.from_rows(rows)
        for column in (trace.gaps_ns, trace.rows, trace.lines, trace.writes):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1

    def test_concurrent_replays_stay_exact(self):
        """Six threads replay one trace at once, many times each; every
        replay stays exact."""
        trace = _random_trace(3000, seed=6, parts=2)
        expected = _fresh(trace, 128)
        mismatches = []

        def replay():
            for _ in range(15):
                if _replay(trace, 128) != expected:
                    mismatches.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=replay) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert mismatches == []

    def test_draining_a_slice_builds_no_python_columns(self):
        """One full slice drains with only its bank-index array
        (8 B/request) allocated; converting the slice to Python lists
        would cost ~6.5 MB here."""
        trace = _random_trace(trace_module.DEFAULT_STREAM_CHUNK, seed=8)
        tracemalloc.start()
        try:
            deque(trace.resolved_stream(128, LineTotals()), maxlen=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestCharacterize:
    def test_empty(self):
        stats = characterize(Trace.from_rows([]))
        assert stats.activations == 0
        assert stats.unique_rows == 0

    def test_counts_unique_rows_and_acts(self):
        stats = characterize(Trace.from_rows([1, 2, 1, 3, 1]))
        assert stats.unique_rows == 3
        assert stats.activations == 5
        assert stats.acts_per_row == pytest.approx(5 / 3)

    def test_consecutive_chunks_coalesce(self):
        """Back-to-back same-row requests = one activation (row hit)."""
        stats = characterize(Trace.from_rows([1, 1, 1, 2, 2, 1]))
        assert stats.activations == 3  # 1, 2, 1

    def test_hot_threshold(self):
        rows = [9] * 300 + [1]
        # Interleave so the 300 accesses are separate activations.
        interleaved = []
        for r in rows[:300]:
            interleaved += [r, 1]
        stats = characterize(Trace.from_rows(interleaved), hot_threshold=250)
        assert stats.act250_rows == 2  # both 9 (300) and 1 (301)

    def test_line_transfers(self):
        stats = characterize(Trace.from_rows([1, 2], n_lines=4))
        assert stats.line_transfers == 8


def _brute_force_by_window(trace, window_ns, hot_threshold=250):
    """The pre-optimization O(windows x N) reference: one sub-Trace
    characterized per window."""
    arrival = np.cumsum(trace.gaps_ns)
    window_ids = (arrival // window_ns).astype(np.int64)
    result = {}
    for window in np.unique(window_ids):
        mask = window_ids == window
        sub = Trace(
            gaps_ns=trace.gaps_ns[mask],
            rows=trace.rows[mask],
            lines=trace.lines[mask],
            writes=trace.writes[mask],
        )
        result[int(window)] = characterize(sub, hot_threshold)
    return result


class TestWindowSplit:
    def test_statistics_by_window(self):
        trace = Trace.from_rows([1, 2, 3, 4], gap_ns=10.0)
        by_window = statistics_by_window(trace, window_ns=20.0)
        assert len(by_window) >= 2
        total = sum(s.activations for s in by_window.values())
        assert total == 4

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            statistics_by_window(Trace.from_rows([1]), window_ns=0.0)

    def test_empty_trace(self):
        assert statistics_by_window(Trace.from_rows([]), window_ns=5.0) == {}

    @pytest.mark.parametrize("window_ns", [5.0, 50.0, 333.3, 1e9])
    def test_one_pass_matches_per_window_characterize(self, window_ns):
        """The single-pass implementation must agree with the obvious
        sub-Trace-per-window reference on every field, including the
        dedup restart at window boundaries."""
        rng = np.random.default_rng(11)
        n = 3000
        trace = Trace(
            gaps_ns=rng.uniform(0.1, 15.0, n),
            rows=rng.integers(0, 40, n, dtype=np.int64),  # many repeats
            lines=rng.integers(1, 5, n).astype(np.int32),
            writes=rng.random(n) < 0.5,
        )
        assert statistics_by_window(
            trace, window_ns, hot_threshold=10
        ) == _brute_force_by_window(trace, window_ns, hot_threshold=10)

    def test_row_continuing_across_boundary_reactivates(self):
        """A row spanning a window boundary counts as a fresh
        activation in the new window (each window characterizes as its
        own trace)."""
        trace = Trace.from_rows([9, 9, 9, 9], gap_ns=10.0)
        # Arrivals 10/20/30/40 land in windows 0, 1, 1, 2: the run of
        # row 9 coalesces within window 1 but re-activates in each new
        # window — 3 activations, where whole-trace coalescing gives 1.
        by_window = statistics_by_window(trace, window_ns=20.0)
        assert sum(s.activations for s in by_window.values()) == 3
        assert by_window[1].activations == 1
