"""Memory-request traces and their row-activation statistics.

A :class:`Trace` is the unit of work the simulator consumes: a
sequence of row-level demand requests, each with a program-driven
inter-arrival gap, a global row id, and a burst length in 64 B lines.
Traces are stored as parallel numpy arrays for compactness and can be
saved/loaded (npz) so expensive generations are reusable.

:func:`characterize` reproduces Table 3's statistics from a trace —
the round-trip check that our synthetic generator actually matches the
paper's workload descriptions.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class TraceStatistics:
    """Row-activation statistics of one trace window (Table 3 shape)."""

    activations: int
    unique_rows: int
    act250_rows: int
    acts_per_row: float
    line_transfers: int


#: The one trace per process that keeps its Python-scalar columns:
#: the most recently replayed (see :class:`Trace`). Pool threads replay
#: traces concurrently, so the swap and the store share one lock.
_column_holder: Optional["Trace"] = None
_column_lock = threading.Lock()


class Trace:
    """Immutable sequence of (gap_ns, row_id, n_lines, is_write).

    Replay iterates Python-scalar columns built from the numpy arrays
    (``tolist`` plus the topology div/mod of :meth:`resolved_stream`).
    They cost ~150 B per request against ~21 B of numpy, so only one
    trace per process keeps them: the most recently replayed. When
    another trace builds its columns, the previous holder's are
    dropped. Back-to-back replays of one trace (every tracker of a
    serial comparison) convert once; switching traces re-converts,
    which costs a few percent of a replay.
    """

    __slots__ = ("gaps_ns", "rows", "lines", "writes", "name", "_columns", "_resolved")

    def __init__(
        self,
        gaps_ns: np.ndarray,
        rows: np.ndarray,
        lines: np.ndarray,
        writes: np.ndarray,
        name: str = "trace",
    ) -> None:
        n = len(rows)
        if not (len(gaps_ns) == len(lines) == len(writes) == n):
            raise ValueError("trace arrays must have equal length")
        self.gaps_ns = np.asarray(gaps_ns, dtype=np.float64)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.lines = np.asarray(lines, dtype=np.int32)
        self.writes = np.asarray(writes, dtype=bool)
        self.name = name
        #: Lazily materialized Python-scalar columns, kept while this
        #: trace is the process's column holder.
        self._columns: Optional[Tuple[list, list, list, list]] = None
        #: Lazily resolved per-request topology columns, keyed by
        #: ``(rows_per_bank, banks_per_channel)`` (one geometry per
        #: simulated system, but attack mixes reuse traces across
        #: scaled geometries). Dropped with ``_columns``.
        self._resolved: Dict[Tuple[int, int], tuple] = {}

    def _keep(
        self,
        columns: Optional[Tuple[list, list, list, list]] = None,
        geometry: Optional[Tuple[int, int]] = None,
        resolved: Optional[tuple] = None,
    ) -> None:
        """Store built columns, becoming the process's column holder.

        The previous holder's columns are dropped in the same step.
        """
        global _column_holder
        with _column_lock:
            holder = _column_holder
            if holder is not self:
                if holder is not None:
                    holder._columns = None
                    holder._resolved = {}
                _column_holder = self
            if columns is not None:
                self._columns = columns
            if resolved is not None:
                self._resolved[geometry] = resolved

    def __len__(self) -> int:
        return len(self.rows)

    def _column_lists(self) -> Tuple[list, list, list, list]:
        columns = self._columns
        if columns is None:
            columns = (
                self.gaps_ns.tolist(),
                self.rows.tolist(),
                self.lines.tolist(),
                self.writes.tolist(),
            )
            self._keep(columns=columns)
        return columns

    def __iter__(self) -> Iterator[Tuple[float, int, int, bool]]:
        """Iterate as plain Python tuples (fast path for the core loop)."""
        return zip(*self._column_lists())

    def resolved_stream(
        self, rows_per_bank: int, banks_per_channel: int
    ) -> Iterator[Tuple[float, int, int, int, int, int, bool]]:
        """Iterate with bank/channel topology pre-resolved per request.

        Yields ``(gap_ns, row_id, local_row, bank_index, channel,
        n_lines, is_write)``. The integer divisions a controller would
        otherwise re-derive per request (``row // rows_per_bank`` etc.)
        are computed vectorized in numpy, once per (trace, geometry)
        pair, and cached. Values are bit-identical to the per-request
        scalar arithmetic: row ids are non-negative, so numpy int64
        floor division and modulo match Python's exactly.
        """
        if rows_per_bank <= 0 or banks_per_channel <= 0:
            raise ValueError("topology divisors must be positive")
        key = (rows_per_bank, banks_per_channel)
        resolved = self._resolved.get(key)
        if resolved is None:
            bank_index = self.rows // rows_per_bank
            resolved = (
                (self.rows % rows_per_bank).tolist(),
                bank_index.tolist(),
                (bank_index // banks_per_channel).tolist(),
            )
            self._keep(geometry=key, resolved=resolved)
        gaps, rows, lines, writes = self._column_lists()
        local_rows, bank_indices, channels = resolved
        return zip(gaps, rows, local_rows, bank_indices, channels, lines, writes)

    def chunks(self):
        """This trace as a single-chunk stream (TraceSource surface).

        Lets every chunk-walking tool (streaming characterization,
        format conversion, spooling) treat a whole-in-RAM trace and a
        :class:`~repro.workloads.streaming.ChunkedTrace` uniformly.
        The yielded chunk is a zero-copy view.
        """
        from repro.workloads.streaming import TraceChunk

        yield TraceChunk.of(self)

    @property
    def total_lines(self) -> int:
        return int(self.lines.sum())

    @property
    def duration_hint_ns(self) -> float:
        """Program-intent duration (sum of inter-arrival gaps)."""
        return float(self.gaps_ns.sum())

    @staticmethod
    def from_rows(
        rows: Sequence[int],
        gap_ns: float = 50.0,
        n_lines: int = 1,
        name: str = "trace",
    ) -> "Trace":
        """Build a uniform-gap trace from a row-id sequence (tests/attacks)."""
        n = len(rows)
        return Trace(
            gaps_ns=np.full(n, float(gap_ns)),
            rows=np.asarray(rows, dtype=np.int64),
            lines=np.full(n, int(n_lines), dtype=np.int32),
            writes=np.zeros(n, dtype=bool),
            name=name,
        )

    @staticmethod
    def concatenate(traces: Sequence["Trace"], name: str = "trace") -> "Trace":
        """Concatenate traces back-to-back into one new trace.

        The inputs' lazily-built ``_columns``/``_resolved`` caches are
        *not* carried over — the result starts with cold caches and
        rebuilds them on first iteration. This is deliberate: the
        caches are plain derivations of the array data (``tolist`` and
        integer div/mod), so rebuilding cannot change any value — the
        concatenated trace resolves topology identically to its parts
        (pinned by ``tests/workloads/test_trace.py``). The same holds
        for the merged traces :mod:`repro.workloads.mixes` builds.
        """
        if not traces:
            raise ValueError("need at least one trace")
        return Trace(
            gaps_ns=np.concatenate([t.gaps_ns for t in traces]),
            rows=np.concatenate([t.rows for t in traces]),
            lines=np.concatenate([t.lines for t in traces]),
            writes=np.concatenate([t.writes for t in traces]),
            name=name,
        )

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            gaps_ns=self.gaps_ns,
            rows=self.rows,
            lines=self.lines,
            writes=self.writes,
            name=np.array(self.name),
        )

    @staticmethod
    def load(path: str) -> "Trace":
        """Read a trace written by :meth:`save`, checking every request.

        Raises ``ValueError`` naming ``path`` when a request breaks the
        recorded-trace rules (:func:`check_requests`).
        """
        with np.load(path, allow_pickle=False) as data:
            trace = Trace(
                gaps_ns=data["gaps_ns"],
                rows=data["rows"],
                lines=data["lines"],
                writes=data["writes"],
                name=str(data["name"]),
            )
        check_requests(trace.rows, trace.lines, str(path))
        return trace


def check_requests(rows: np.ndarray, lines: np.ndarray, where: str) -> None:
    """Apply the text reader's rules to recorded request arrays.

    Every request needs ``row_id >= 0`` and ``n_lines >= 1``; a
    negative row would index a bank from the end of the bank list, and
    an empty burst is not an access. Checked vectorized when a recorded
    trace (an ``.npz`` file, or one chunked segment) is loaded, before
    any of its requests run. The ``ValueError`` names ``where`` and the
    first offending request.
    """
    bad = (np.asarray(rows) < 0) | (np.asarray(lines) < 1)
    if bad.any():
        index = int(np.argmax(bad))
        raise ValueError(
            f"{where}: request {index}: row_id must be >= 0 and"
            f" n_lines >= 1, got row_id={int(rows[index])}"
            f" n_lines={int(lines[index])}"
        )


def characterize(trace: Trace, hot_threshold: int = 250) -> TraceStatistics:
    """Compute Table 3-style statistics for one trace.

    Counts *first-chunk* activations: consecutive same-row requests
    (the generator's burst chunks) count as a single activation, the
    same way the DRAM row buffer would coalesce them.
    """
    rows = trace.rows
    if len(rows) == 0:
        return TraceStatistics(0, 0, 0, 0.0, 0)
    new_act = np.ones(len(rows), dtype=bool)
    new_act[1:] = rows[1:] != rows[:-1]
    act_rows = rows[new_act]
    unique, counts = np.unique(act_rows, return_counts=True)
    return TraceStatistics(
        activations=int(len(act_rows)),
        unique_rows=int(len(unique)),
        act250_rows=int((counts > hot_threshold).sum()),
        acts_per_row=float(len(act_rows) / len(unique)),
        line_transfers=trace.total_lines,
    )


def statistics_by_window(
    trace: Trace, window_ns: float, hot_threshold: int = 250
) -> Dict[int, TraceStatistics]:
    """Per-window statistics, splitting by cumulative program time.

    One vectorized pass over the window ids: requests are grouped by
    window (stable, so in-window order is preserved), activations are
    coalesced with the dedup restarting at each window boundary —
    exactly as if each window were characterized as its own trace —
    and the per-window slices are read off searchsorted boundaries.
    The old implementation materialized a full sub-``Trace`` per
    window (O(windows x N) masking and copying); this allocates O(N)
    once, regardless of the window count.
    """
    if window_ns <= 0:
        raise ValueError("window_ns must be positive")
    n = len(trace)
    if n == 0:
        return {}
    arrival = np.cumsum(trace.gaps_ns)
    window_ids = (arrival // window_ns).astype(np.int64)
    order = np.argsort(window_ids, kind="stable")
    win = window_ids[order]
    rows = trace.rows[order]
    lines = trace.lines[order]
    # First-chunk activation coalescing, restarted per window: a
    # request is a new activation unless it repeats the previous row
    # *within the same window* (each window characterizes as its own
    # trace, so a row continuing across the boundary re-activates).
    new_act = np.ones(n, dtype=bool)
    new_act[1:] = (rows[1:] != rows[:-1]) | (win[1:] != win[:-1])
    act_win = win[new_act]
    act_rows = rows[new_act]
    windows = np.unique(win)
    starts = np.searchsorted(win, windows, side="left")
    ends = np.searchsorted(win, windows, side="right")
    act_starts = np.searchsorted(act_win, windows, side="left")
    act_ends = np.searchsorted(act_win, windows, side="right")
    result: Dict[int, TraceStatistics] = {}
    for index, window in enumerate(windows.tolist()):
        a0, a1 = int(act_starts[index]), int(act_ends[index])
        unique, counts = np.unique(act_rows[a0:a1], return_counts=True)
        activations = a1 - a0
        result[int(window)] = TraceStatistics(
            activations=activations,
            unique_rows=int(len(unique)),
            act250_rows=int((counts > hot_threshold).sum()),
            acts_per_row=float(activations / len(unique)),
            line_transfers=int(lines[starts[index] : ends[index]].sum()),
        )
    return result
