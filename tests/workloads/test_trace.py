"""Tests for the Trace container and Table-3 characterization."""

import sys
import threading

import numpy as np
import pytest

from repro.workloads.trace import Trace, characterize, statistics_by_window


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

    def test_concatenate_drops_caches_but_resolves_identically(self):
        """Regression for the documented cache-drop contract: an input
        with warm ``_columns``/``_resolved`` caches produces a
        cold-cache concatenation whose rebuilt topology is
        bit-identical to streaming the parts back-to-back."""
        a = Trace.from_rows([1, 130, 257], gap_ns=5.0)
        b = Trace.from_rows([384, 2, 511], gap_ns=7.0)
        # Replay both inputs; the last one replayed holds warm caches.
        list(a.resolved_stream(128, 2))
        list(b.resolved_stream(128, 2))
        assert b._columns is not None and b._resolved
        combined = Trace.concatenate([a, b])
        assert combined._columns is None
        assert combined._resolved == {}
        expected = list(a.resolved_stream(128, 2)) + list(
            b.resolved_stream(128, 2)
        )
        assert list(combined.resolved_stream(128, 2)) == expected
        assert list(combined) == list(a) + list(b)

    def test_only_the_last_replayed_trace_keeps_columns(self):
        """One trace per process holds Python columns: replaying B
        drops A's, and both still stream bit-identically."""
        a = Trace.from_rows([1, 130, 257, 1], gap_ns=5.0)
        b = Trace.from_rows([384, 2, 511], gap_ns=7.0)
        a_stream, a_plain = list(a.resolved_stream(128, 2)), list(a)
        b_stream, b_plain = list(b.resolved_stream(128, 2)), list(b)
        assert a._columns is None and a._resolved == {}
        assert b._columns is not None and b._resolved
        fresh_a = Trace(a.gaps_ns, a.rows, a.lines, a.writes)
        fresh_b = Trace(b.gaps_ns, b.rows, b.lines, b.writes)
        assert a_stream == list(fresh_a.resolved_stream(128, 2))
        assert b_stream == list(fresh_b.resolved_stream(128, 2))
        assert a_plain == list(fresh_a) and b_plain == list(fresh_b)
        # Replaying A again rebuilds identical columns.
        assert list(a.resolved_stream(128, 2)) == a_stream
        assert list(a) == a_plain

    def test_concurrent_replays_of_many_traces_stay_exact(self):
        """Thread pools replay different traces at once, each taking
        the one column slot from the others; every replay must still
        stream its own trace exactly, and the slot must end up held by
        one trace at most."""
        rng = np.random.default_rng(7)
        traces = [
            Trace.from_rows(rng.integers(0, 4096, 500).tolist(), gap_ns=g)
            for g in (3.0, 5.0, 7.0, 11.0, 13.0, 17.0)
        ]
        expected = [
            list(Trace(t.gaps_ns, t.rows, t.lines, t.writes).resolved_stream(128, 4))
            for t in traces
        ]
        mismatches = []

        def replay(index):
            for _ in range(20):
                if list(traces[index].resolved_stream(128, 4)) != expected[index]:
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
        # No lost update: at most one trace still holds columns.
        holding = [t for t in traces if t._columns is not None or t._resolved]
        assert len(holding) <= 1

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
