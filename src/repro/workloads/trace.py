"""Memory-request traces and their row-activation statistics.

A :class:`Trace` is the unit of work the simulator consumes: a
sequence of row-level demand requests, each with a program-driven
inter-arrival gap, a global row id, and a burst length in 64 B lines.
Traces are stored as parallel numpy arrays for compactness and can be
saved/loaded (npz) so expensive generations are reusable.

Every trace source replays the same way: its requests come in bounded
:class:`TraceChunk` slices, and :func:`resolved_chunk_stream` turns one
slice at a time into the Python tuples the engines consume.

:func:`characterize` reproduces Table 3's statistics from any trace
source — the round-trip check that our synthetic generator actually
matches the paper's workload descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.workloads import DEFAULT_STREAM_CHUNK

if TYPE_CHECKING:
    from repro.workloads.streaming import TraceSource


@dataclass(frozen=True)
class TraceStatistics:
    """Row-activation statistics of one trace window (Table 3 shape)."""

    activations: int
    unique_rows: int
    act250_rows: int
    acts_per_row: float
    line_transfers: int


@dataclass(frozen=True)
class TraceChunk:
    """One bounded slice of a trace, as parallel numpy arrays.

    The dtypes match :class:`Trace` exactly (float64 / int64 / int32 /
    bool), so chunked round-trips preserve every bit.
    """

    gaps_ns: np.ndarray
    rows: np.ndarray
    lines: np.ndarray
    writes: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    @staticmethod
    def of(trace: "Trace") -> "TraceChunk":
        """View one whole ``Trace`` as a single chunk (no copy when the
        trace has one part)."""
        return TraceChunk(trace.gaps_ns, trace.rows, trace.lines, trace.writes)

    def slice(self, start: int, stop: int) -> "TraceChunk":
        return TraceChunk(
            self.gaps_ns[start:stop],
            self.rows[start:stop],
            self.lines[start:stop],
            self.writes[start:stop],
        )


def _view(array: np.ndarray, dtype) -> memoryview:
    """``array`` as a contiguous, native-endian ``dtype`` column (no copy
    when it already is one). Iterating the view makes each request's
    Python ``float``, ``int`` or ``bool`` only when it is read, the
    value and type ``tolist()`` would give."""
    return memoryview(np.ascontiguousarray(array, dtype=dtype))


def chunk_tuple_stream(
    chunks: Iterable[TraceChunk],
) -> Iterator[Tuple[float, int, int, bool]]:
    """The generic 4-tuple stream, one chunk of column views at a time."""
    return chain.from_iterable(
        zip(
            _view(chunk.gaps_ns, np.float64),
            _view(chunk.rows, np.int64),
            _view(chunk.lines, np.int32),
            _view(chunk.writes, bool),
        )
        for chunk in chunks
    )


class LineTotals:
    """Integer sums over the requests a resolved stream converted.

    The stream adds each chunk's sums when it converts the chunk, so
    once an engine has drained the stream these are the trace's totals:
    ``requests``, ``lines`` over every request and ``write_lines`` over
    the writes. Integer sums are exact and order-free, so an engine
    that reads them after its loop reports the bits a per-request count
    would (DESIGN.md §9).
    """

    __slots__ = ("requests", "lines", "write_lines")

    def __init__(self) -> None:
        self.requests = 0
        self.lines = 0
        self.write_lines = 0


def _resolved_columns(
    chunk: TraceChunk, rows_per_bank: int, totals: LineTotals
) -> Tuple[memoryview, ...]:
    """One chunk's five column views; its sums go to ``totals``."""
    rows = np.ascontiguousarray(chunk.rows, dtype=np.int64)
    lines = np.ascontiguousarray(chunk.lines, dtype=np.int32)
    writes = np.ascontiguousarray(chunk.writes, dtype=bool)
    totals.requests += len(rows)
    totals.lines += int(lines.sum(dtype=np.int64))
    totals.write_lines += int(lines.sum(dtype=np.int64, where=writes))
    return (
        _view(chunk.gaps_ns, np.float64),
        memoryview(rows),
        memoryview(rows // rows_per_bank),
        memoryview(lines),
        memoryview(writes),
    )


def resolved_chunk_stream(
    chunks: Iterable[TraceChunk], rows_per_bank: int, totals: LineTotals
) -> Iterator[Tuple[float, int, int, int, bool]]:
    """Yield ``(gap_ns, row_id, bank_index, n_lines, is_write)`` per
    request, one chunk at a time.

    The bank index a controller would otherwise derive per request
    (``row // rows_per_bank``) is computed vectorized in numpy per
    chunk; row ids are non-negative, so numpy int64 floor division
    matches Python's exactly (:func:`repro.memctrl.base._resolve` is
    the scalar twin). Each column is a ``memoryview`` over contiguous
    numpy data, so a request's Python values are made only as the
    engine reads them and no per-chunk Python lists are ever built.
    Each chunk's request count and line sums go to ``totals`` as the
    chunk is converted. The chunks' ``zip`` iterators are chained in
    C, so a request costs the engine loop no Python frame.
    """
    if rows_per_bank <= 0:
        raise ValueError("rows_per_bank must be positive")
    return chain.from_iterable(
        zip(*_resolved_columns(chunk, rows_per_bank, totals)) for chunk in chunks
    )


class ChunkReplay:
    """The replay surface every trace source shares: both streams walk
    the source's ``chunks()``."""

    __slots__ = ()

    def chunks(self) -> Iterator[TraceChunk]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Tuple[float, int, int, bool]]:
        """Iterate as plain Python tuples."""
        return chunk_tuple_stream(self.chunks())

    def resolved_stream(
        self, rows_per_bank: int, totals: LineTotals
    ) -> Iterator[Tuple[float, int, int, int, bool]]:
        """Iterate with each request's bank index resolved
        (see :func:`resolved_chunk_stream`)."""
        return resolved_chunk_stream(self.chunks(), rows_per_bank, totals)


def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that cannot be written through, so a
    ``Trace``'s requests cannot change under a replay's column views."""
    view = array.view()
    view.flags.writeable = False
    return view


class Trace(ChunkReplay):
    """Immutable sequence of (gap_ns, row_id, n_lines, is_write).

    The requests live in numpy arrays only, ~21 B each. They may be
    held as several parts: :meth:`concatenate` (and so the synthetic
    generator, one part per tracking window) keeps its inputs' arrays
    instead of copying them, so building a trace never holds it twice.
    The whole-trace columns ``gaps_ns``, ``rows``, ``lines`` and
    ``writes`` join the parts on each access; replay walks the parts in
    :data:`~repro.workloads.DEFAULT_STREAM_CHUNK` slices
    (:meth:`chunks`), exactly as a chunked on-disk trace does. The
    constructor holds every request to the recorded-trace rules
    (:func:`check_requests`, the error naming the trace) and keeps
    read-only views of the arrays; :meth:`concatenate` joins traces
    that were checked when they were built.
    """

    __slots__ = ("_parts", "name")

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
        part = TraceChunk(
            _read_only(np.asarray(gaps_ns, dtype=np.float64)),
            _read_only(np.asarray(rows, dtype=np.int64)),
            _read_only(np.asarray(lines, dtype=np.int32)),
            _read_only(np.asarray(writes, dtype=bool)),
        )
        check_requests(part.gaps_ns, part.rows, part.lines, name)
        self._parts: Tuple[TraceChunk, ...] = (part,)
        self.name = name

    def _column(self, field: str) -> np.ndarray:
        if len(self._parts) == 1:
            return getattr(self._parts[0], field)
        return np.concatenate([getattr(part, field) for part in self._parts])

    @property
    def gaps_ns(self) -> np.ndarray:
        return self._column("gaps_ns")

    @property
    def rows(self) -> np.ndarray:
        return self._column("rows")

    @property
    def lines(self) -> np.ndarray:
        return self._column("lines")

    @property
    def writes(self) -> np.ndarray:
        return self._column("writes")

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)

    @property
    def nbytes(self) -> int:
        """Bytes of the numpy arrays holding the requests."""
        return sum(
            part.gaps_ns.nbytes + part.rows.nbytes
            + part.lines.nbytes + part.writes.nbytes
            for part in self._parts
        )

    def chunks(self) -> Iterator[TraceChunk]:
        """The trace as zero-copy slices of at most
        :data:`~repro.workloads.DEFAULT_STREAM_CHUNK` requests."""
        for part in self._parts:
            for start in range(0, len(part), DEFAULT_STREAM_CHUNK):
                yield part.slice(start, start + DEFAULT_STREAM_CHUNK)

    @property
    def total_lines(self) -> int:
        return sum(int(part.lines.sum()) for part in self._parts)

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
        """Join traces back-to-back into one new trace, without copying:
        the result holds its inputs' arrays as its parts."""
        if not traces:
            raise ValueError("need at least one trace")
        joined = Trace.__new__(Trace)
        joined._parts = tuple(part for trace in traces for part in trace._parts)
        joined.name = name
        return joined

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
            # Built under the path, so a refusal names the file; the
            # trace then takes its recorded name.
            trace = Trace(
                gaps_ns=data["gaps_ns"],
                rows=data["rows"],
                lines=data["lines"],
                writes=data["writes"],
                name=str(path),
            )
            trace.name = str(data["name"])
        return trace


def check_requests(
    gaps: np.ndarray, rows: np.ndarray, lines: np.ndarray, where: str
) -> None:
    """Apply the text reader's rules to recorded request arrays.

    Every request needs a finite ``gap_ns >= 0``, ``row_id >= 0`` and
    ``n_lines >= 1``: an infinite gap would advance the refresh windows
    forever, a NaN or negative one runs time backwards, a negative row
    would index a bank from the end of the bank list, and an empty
    burst is not an access. Checked vectorized when a ``Trace`` is
    built (an ``.npz`` load included) and when a chunked segment is
    opened, before any of its requests run. The ``ValueError`` names
    ``where`` and the first offending request.
    """
    gaps = np.asarray(gaps, dtype=np.float64)
    bad = ~(np.isfinite(gaps) & (gaps >= 0))
    bad |= (np.asarray(rows) < 0) | (np.asarray(lines) < 1)
    if bad.any():
        index = int(np.argmax(bad))
        raise request_error(
            where, index, float(gaps[index]), int(rows[index]), int(lines[index])
        )


def request_error(
    where: str, index: int, gap_ns: float, row_id: int, n_lines: int
) -> ValueError:
    """The error for request ``index`` of ``where``, which breaks a rule
    of :func:`check_requests`: its gap if the gap is bad, else its row
    or burst length."""
    if not 0 <= gap_ns < float("inf"):
        return ValueError(
            f"{where}: request {index}: gap_ns must be finite and"
            f" >= 0, got gap_ns={float(gap_ns)!r}"
        )
    return ValueError(
        f"{where}: request {index}: row_id must be >= 0 and"
        f" n_lines >= 1, got row_id={int(row_id)}"
        f" n_lines={int(n_lines)}"
    )


def characterize(
    source: "TraceSource", hot_threshold: int = 250
) -> TraceStatistics:
    """Compute Table 3-style statistics in one pass over any
    :class:`~repro.workloads.streaming.TraceSource`.

    Counts *first-chunk* activations: consecutive same-row requests
    (the generator's burst chunks) count as a single activation, the
    same way the DRAM row buffer would coalesce them — across chunk
    boundaries too, so a chunked source gives exactly the statistics
    of its materialized concatenation. Memory is bounded by one chunk
    plus the per-row activation counts (the unique-row footprint,
    which Table 3 itself bounds).
    """
    counts: Dict[int, int] = {}
    activations = 0
    line_transfers = 0
    last_row: Optional[int] = None
    for chunk in source.chunks():
        rows = np.asarray(chunk.rows, dtype=np.int64)
        if len(rows) == 0:
            continue
        new_act = np.ones(len(rows), dtype=bool)
        new_act[1:] = rows[1:] != rows[:-1]
        if last_row is not None and rows[0] == last_row:
            new_act[0] = False
        act_rows = rows[new_act]
        unique, per_row = np.unique(act_rows, return_counts=True)
        for row, count in zip(unique.tolist(), per_row.tolist()):
            counts[row] = counts.get(row, 0) + count
        activations += len(act_rows)
        line_transfers += int(np.asarray(chunk.lines).sum())
        last_row = int(rows[-1])
    if not counts:
        return TraceStatistics(0, 0, 0, 0.0, 0)
    return TraceStatistics(
        activations=activations,
        unique_rows=len(counts),
        act250_rows=sum(1 for count in counts.values() if count > hot_threshold),
        acts_per_row=activations / len(counts),
        line_transfers=line_transfers,
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
