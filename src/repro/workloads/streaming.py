"""Streaming trace substrate: chunked sources in bounded memory.

A :class:`~repro.workloads.trace.Trace` holds a whole trace in RAM —
the right trade for the 36-workload figure sweeps, but a hard cap on
the long-duration campaigns ultra-low T_RH tracking is *for* (billions
of activations across thousands of 64 ms windows). This module grows
the substrate from "one big array" to "a stream of bounded chunks":

- :class:`TraceSource` — the protocol every trace-consuming layer
  (both memory-controller engines, ``simulate``, the characterization
  tools) actually relies on. ``Trace`` satisfies it unchanged.
- :class:`TraceChunk` — one bounded slice of a trace as parallel numpy
  arrays; the unit of streaming I/O.
- :class:`ChunkedTrace` — a trace stored as memory-mapped ``.npy``
  segments on disk plus a JSON manifest. Iteration materializes one
  chunk at a time (including the per-chunk resolved-topology columns
  the fast engine consumes), so peak memory is bounded by the chunk
  size, not the trace length.
- :class:`ExternalTraceReader` / :func:`write_external_trace` — a
  DRAMSim/USIMM-style line-oriented text format (grammar in
  DESIGN.md §13) so real recorded traces replay through the simulator
  without conversion, also chunk-at-a-time.
- :func:`open_trace_source` / :func:`write_trace_source` — the one
  map from a path's suffix (directory, ``.npz``, text) to a format,
  for reading and for writing.

The chunk-boundary invariant all of this rests on: a chunked stream
yields exactly the tuples the materialized trace would, in the same
order, computed with the same arithmetic — so both engines produce
bit-identical ``RunResult``s from either representation (pinned by
``tests/sim/test_stream_parity.py``).
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import (
    IO,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.durable import atomic_write_text
from repro.workloads import DEFAULT_STREAM_CHUNK
from repro.workloads.trace import Trace, check_requests

try:  # pragma: no cover - exercised only on Python < 3.8
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[no-redef]
        return cls


#: Manifest schema identifier of a chunked-trace directory.
CHUNKED_FORMAT = "repro-chunked-trace"
CHUNKED_VERSION = 1

#: File suffixes treated as the external text format (anything that is
#: neither ``.npz`` nor a directory is parsed as text too).
TEXT_SUFFIXES = (".trc", ".txt", ".trace")


@runtime_checkable
class TraceSource(Protocol):
    """What every trace-consuming layer requires of a trace.

    Both engines duck-type exactly this surface: each asks for
    ``resolved_stream``;
    ``simulate`` reads ``name``; the characterization and conversion
    tools walk ``chunks()``. ``Trace`` (whole-in-RAM),
    :class:`ChunkedTrace` (mmapped segments), and
    :class:`ExternalTraceReader` (text files) all satisfy it — only
    the memory profile differs.
    """

    name: str

    def __iter__(self) -> Iterator[Tuple[float, int, int, bool]]:
        """Yield ``(gap_ns, row_id, n_lines, is_write)`` per request."""
        ...

    def resolved_stream(
        self, rows_per_bank: int, banks_per_channel: int
    ) -> Iterator[Tuple[float, int, int, int, int, int, bool]]:
        """Yield requests with bank/channel topology pre-resolved."""
        ...

    def chunks(self) -> Iterator["TraceChunk"]:
        """Yield the trace as bounded :class:`TraceChunk` slices."""
        ...


@dataclass(frozen=True)
class TraceChunk:
    """One bounded slice of a trace, as parallel numpy arrays.

    The dtypes match :class:`~repro.workloads.trace.Trace` exactly
    (float64 / int64 / int32 / bool), so chunked round-trips preserve
    every bit.
    """

    gaps_ns: np.ndarray
    rows: np.ndarray
    lines: np.ndarray
    writes: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    @staticmethod
    def of(trace: Trace) -> "TraceChunk":
        """View one whole ``Trace`` as a single chunk (no copy)."""
        return TraceChunk(trace.gaps_ns, trace.rows, trace.lines, trace.writes)

    def slice(self, start: int, stop: int) -> "TraceChunk":
        return TraceChunk(
            self.gaps_ns[start:stop],
            self.rows[start:stop],
            self.lines[start:stop],
            self.writes[start:stop],
        )


def _chunk_tuple_stream(
    chunks: Iterable[TraceChunk],
) -> Iterator[Tuple[float, int, int, bool]]:
    """The generic 4-tuple stream, one chunk of lists at a time."""
    for chunk in chunks:
        yield from zip(
            np.asarray(chunk.gaps_ns, dtype=np.float64).tolist(),
            np.asarray(chunk.rows, dtype=np.int64).tolist(),
            np.asarray(chunk.lines, dtype=np.int32).tolist(),
            np.asarray(chunk.writes, dtype=bool).tolist(),
        )


def _resolved_chunk_stream(
    chunks: Iterable[TraceChunk], rows_per_bank: int, banks_per_channel: int
) -> Iterator[Tuple[float, int, int, int, int, int, bool]]:
    """Per-chunk resolved-topology stream (the fast engine's diet).

    Identical arithmetic to ``Trace.resolved_stream`` — vectorized
    int64 floor division/modulo on non-negative row ids — applied one
    chunk at a time, so only one chunk's columns are ever resident.
    """
    if rows_per_bank <= 0 or banks_per_channel <= 0:
        raise ValueError("topology divisors must be positive")
    for chunk in chunks:
        rows = np.asarray(chunk.rows, dtype=np.int64)
        bank_index = rows // rows_per_bank
        yield from zip(
            np.asarray(chunk.gaps_ns, dtype=np.float64).tolist(),
            rows.tolist(),
            (rows % rows_per_bank).tolist(),
            bank_index.tolist(),
            (bank_index // banks_per_channel).tolist(),
            np.asarray(chunk.lines, dtype=np.int32).tolist(),
            np.asarray(chunk.writes, dtype=bool).tolist(),
        )


class _StreamingSourceBase:
    """Shared ``TraceSource`` plumbing for chunk-backed sources."""

    name: str = "trace"

    def chunks(self) -> Iterator[TraceChunk]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Tuple[float, int, int, bool]]:
        return _chunk_tuple_stream(self.chunks())

    def resolved_stream(
        self, rows_per_bank: int, banks_per_channel: int
    ) -> Iterator[Tuple[float, int, int, int, int, int, bool]]:
        return _resolved_chunk_stream(
            self.chunks(), rows_per_bank, banks_per_channel
        )

    def materialize(self) -> Trace:
        """Concatenate every chunk into one in-RAM ``Trace``.

        For tools and tests; defeats the bounded-memory point, so the
        simulation path never calls it implicitly.
        """
        return materialize(self)


# ----------------------------------------------------------------------
# Chunked on-disk traces (memory-mapped npy segments)
# ----------------------------------------------------------------------

_SEGMENT_COLUMNS = ("gaps", "rows", "lines", "writes")
_SEGMENT_DTYPES = {
    "gaps": np.float64,
    "rows": np.int64,
    "lines": np.int32,
    "writes": np.bool_,
}


class ChunkedTrace(_StreamingSourceBase):
    """A trace stored as mmapped ``.npy`` segments plus a manifest.

    Directory layout::

        <dir>/manifest.json             name, request/segment counts
        <dir>/seg-00000.gaps.npy        float64 inter-arrival gaps
        <dir>/seg-00000.rows.npy        int64 global row ids
        <dir>/seg-00000.lines.npy       int32 burst lengths
        <dir>/seg-00000.writes.npy      bool write flags
        <dir>/seg-00001.gaps.npy        ...

    ``chunks()`` opens one segment at a time with
    ``np.load(mmap_mode="r")``; downstream streams materialize at most
    one segment's columns, so replay memory is bounded by
    ``chunk_requests`` regardless of trace length.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        manifest_path = self.directory / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text())
        except FileNotFoundError:
            raise ValueError(
                f"{self.directory} is not a chunked trace (no manifest.json)"
            ) from None
        if manifest.get("format") != CHUNKED_FORMAT:
            raise ValueError(
                f"{manifest_path} is not a {CHUNKED_FORMAT} manifest"
            )
        self.name: str = str(manifest.get("name", self.directory.name))
        self.chunk_requests: int = int(
            manifest.get("chunk_requests", DEFAULT_STREAM_CHUNK)
        )
        self._segments: List[Dict[str, Union[str, int]]] = list(
            manifest.get("segments", [])
        )
        self.n_requests: int = int(
            manifest.get(
                "n_requests", sum(int(s["requests"]) for s in self._segments)
            )
        )

    def __len__(self) -> int:
        return self.n_requests

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    def segment_paths(self, index: int) -> Dict[str, Path]:
        stem = str(self._segments[index]["stem"])
        return {
            column: self.directory / f"{stem}.{column}.npy"
            for column in _SEGMENT_COLUMNS
        }

    def chunks(self) -> Iterator[TraceChunk]:
        """Open each segment in turn, checking its requests first.

        A segment that breaks the recorded-trace rules
        (:func:`~repro.workloads.trace.check_requests`) raises a
        ``ValueError`` naming the directory and the segment before any
        of its requests are yielded.
        """
        for index in range(len(self._segments)):
            paths = self.segment_paths(index)
            gaps = np.load(paths["gaps"], mmap_mode="r")
            rows = np.load(paths["rows"], mmap_mode="r")
            lines = np.load(paths["lines"], mmap_mode="r")
            check_requests(
                gaps,
                rows,
                lines,
                f"{self.directory} segment {index}"
                f" ({self._segments[index]['stem']})",
            )
            yield TraceChunk(
                gaps_ns=gaps,
                rows=rows,
                lines=lines,
                writes=np.load(paths["writes"], mmap_mode="r"),
            )

    def delete(self) -> None:
        """Remove the backing directory (spooled-segment cleanup)."""
        shutil.rmtree(self.directory, ignore_errors=True)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def write(
        cls,
        chunks: Iterable[TraceChunk],
        directory: Union[str, Path],
        name: str = "trace",
        chunk_requests: int = DEFAULT_STREAM_CHUNK,
    ) -> "ChunkedTrace":
        """Spool a chunk stream into on-disk segments and open it.

        Incoming chunks are re-chunked into segments of exactly
        ``chunk_requests`` requests (last one partial), so the writer's
        peak memory is one input chunk plus one segment buffer — a long
        trace never exists whole in RAM on the way to disk.
        """
        if chunk_requests < 1:
            raise ValueError("chunk_requests must be >= 1")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        writer = _SegmentWriter(directory, chunk_requests)
        for chunk in chunks:
            writer.feed(chunk)
        segments, n_requests = writer.finish()
        manifest = {
            "format": CHUNKED_FORMAT,
            "version": CHUNKED_VERSION,
            "name": name,
            "chunk_requests": chunk_requests,
            "n_requests": n_requests,
            "segments": segments,
        }
        atomic_write_text(
            directory / "manifest.json",
            json.dumps(manifest, indent=2, sort_keys=True),
        )
        return cls(directory)

    @classmethod
    def from_trace(
        cls,
        trace: Trace,
        directory: Union[str, Path],
        chunk_requests: int = DEFAULT_STREAM_CHUNK,
    ) -> "ChunkedTrace":
        """Spool one in-RAM trace (tests, conversion tooling)."""
        return cls.write(
            [TraceChunk.of(trace)],
            directory,
            name=trace.name,
            chunk_requests=chunk_requests,
        )


class _SegmentWriter:
    """Accumulates chunks and flushes fixed-size npy segments."""

    def __init__(self, directory: Path, chunk_requests: int) -> None:
        self.directory = directory
        self.chunk_requests = chunk_requests
        self._pending: List[TraceChunk] = []
        self._pending_len = 0
        self._segments: List[Dict[str, Union[str, int]]] = []
        self._total = 0

    def feed(self, chunk: TraceChunk) -> None:
        if len(chunk) == 0:
            return
        self._pending.append(chunk)
        self._pending_len += len(chunk)
        while self._pending_len >= self.chunk_requests:
            self._flush(self.chunk_requests)

    def finish(self) -> Tuple[List[Dict[str, Union[str, int]]], int]:
        if self._pending_len:
            self._flush(self._pending_len)
        return self._segments, self._total

    def _flush(self, count: int) -> None:
        taken: List[TraceChunk] = []
        need = count
        while need > 0:
            head = self._pending[0]
            if len(head) <= need:
                taken.append(self._pending.pop(0))
                need -= len(head)
            else:
                taken.append(head.slice(0, need))
                self._pending[0] = head.slice(need, len(head))
                need = 0
        self._pending_len -= count
        stem = f"seg-{len(self._segments):05d}"
        columns = {
            "gaps": np.concatenate(
                [np.asarray(c.gaps_ns, dtype=np.float64) for c in taken]
            ),
            "rows": np.concatenate(
                [np.asarray(c.rows, dtype=np.int64) for c in taken]
            ),
            "lines": np.concatenate(
                [np.asarray(c.lines, dtype=np.int32) for c in taken]
            ),
            "writes": np.concatenate(
                [np.asarray(c.writes, dtype=bool) for c in taken]
            ),
        }
        for column, data in columns.items():
            np.save(self.directory / f"{stem}.{column}.npy", data)
        self._segments.append({"stem": stem, "requests": count})
        self._total += count


# ----------------------------------------------------------------------
# External text traces (DRAMSim/USIMM-style)
# ----------------------------------------------------------------------


class ExternalTraceReader(_StreamingSourceBase):
    """Stream a recorded text trace file without loading it whole.

    Format (full grammar in DESIGN.md §13): one request per line,
    whitespace-separated ::

        <gap_ns> <R|W> <row_id> [<n_lines>]

    ``gap_ns`` is the inter-arrival gap (float, nanoseconds, finite
    and >= 0), ``row_id`` the global row, ``n_lines`` the burst
    length in 64 B lines (default 1). ``#`` starts a comment; blank
    lines are ignored. This is the USIMM trace shape (inter-arrival
    gap + read/write + address) with the address already
    row-resolved.
    """

    def __init__(
        self,
        path: Union[str, Path],
        name: Optional[str] = None,
        chunk_requests: int = DEFAULT_STREAM_CHUNK,
    ) -> None:
        if chunk_requests < 1:
            raise ValueError("chunk_requests must be >= 1")
        self.path = Path(path)
        if not self.path.is_file():
            raise FileNotFoundError(f"no trace file at {self.path}")
        self.name = name if name is not None else self.path.stem
        self.chunk_requests = chunk_requests

    def chunks(self) -> Iterator[TraceChunk]:
        gaps: List[float] = []
        rows: List[int] = []
        lines: List[int] = []
        writes: List[bool] = []
        with self.path.open("r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                text = raw.split("#", 1)[0].strip()
                if not text:
                    continue
                fields = text.split()
                if len(fields) not in (3, 4):
                    raise ValueError(
                        f"{self.path}:{lineno}: expected"
                        " '<gap_ns> <R|W> <row_id> [n_lines]',"
                        f" got {raw.strip()!r}"
                    )
                try:
                    gap = float(fields[0])
                    row = int(fields[2], 0)
                    n_lines = int(fields[3]) if len(fields) == 4 else 1
                except ValueError:
                    raise ValueError(
                        f"{self.path}:{lineno}: malformed numeric field"
                        f" in {raw.strip()!r}"
                    ) from None
                kind = fields[1].upper()
                if kind not in ("R", "W"):
                    raise ValueError(
                        f"{self.path}:{lineno}: access type must be R or"
                        f" W, got {fields[1]!r}"
                    )
                if not (math.isfinite(gap) and gap >= 0):
                    raise ValueError(
                        f"{self.path}:{lineno}: gap_ns must be finite and"
                        f" >= 0 in {raw.strip()!r}"
                    )
                if row < 0 or n_lines < 1:
                    raise ValueError(
                        f"{self.path}:{lineno}: row_id must be >= 0 and"
                        f" n_lines >= 1 in {raw.strip()!r}"
                    )
                gaps.append(gap)
                rows.append(row)
                lines.append(n_lines)
                writes.append(kind == "W")
                if len(rows) >= self.chunk_requests:
                    yield _chunk_from_lists(gaps, rows, lines, writes)
                    gaps, rows, lines, writes = [], [], [], []
        if rows:
            yield _chunk_from_lists(gaps, rows, lines, writes)


def _chunk_from_lists(gaps, rows, lines, writes) -> TraceChunk:
    return TraceChunk(
        gaps_ns=np.array(gaps, dtype=np.float64),
        rows=np.array(rows, dtype=np.int64),
        lines=np.array(lines, dtype=np.int32),
        writes=np.array(writes, dtype=bool),
    )


def write_external_trace(
    source: TraceSource, destination: Union[str, Path, IO[str]]
) -> int:
    """Write any trace source as the external text format; returns the
    request count. Streams chunk-at-a-time, so converting a long
    chunked trace never materializes it."""
    total = 0

    def _emit(handle: IO[str]) -> None:
        nonlocal total
        handle.write(f"# repro external trace: {source.name}\n")
        handle.write("# <gap_ns> <R|W> <row_id> <n_lines>\n")
        for gap, row, n_lines, is_write in _chunk_tuple_stream(source.chunks()):
            kind = "W" if is_write else "R"
            handle.write(f"{gap!r} {kind} {row} {n_lines}\n")
            total += 1

    if hasattr(destination, "write"):
        _emit(destination)  # type: ignore[arg-type]
    else:
        with Path(destination).open("w", encoding="utf-8") as handle:
            _emit(handle)
    return total


def read_external_trace(
    path: Union[str, Path], name: Optional[str] = None
) -> Trace:
    """Materialize an external text trace into one in-RAM ``Trace``."""
    reader = ExternalTraceReader(path, name=name)
    return materialize(reader)


# ----------------------------------------------------------------------
# Opening, materializing, characterizing
# ----------------------------------------------------------------------


def open_trace_source(
    path: Union[str, Path],
    chunk_requests: int = 0,
    name: Optional[str] = None,
) -> TraceSource:
    """Open a trace file/directory as the right kind of source.

    - a directory → :class:`ChunkedTrace` (always streamed);
    - ``*.npz`` → a materialized ``Trace`` (the npz payload is
      compressed, so it must be decompressed whole anyway);
    - anything else → the external text format:
      :class:`ExternalTraceReader` when ``chunk_requests > 0``, else a
      materialized ``Trace``.

    ``chunk_requests`` is the streaming chunk size; ``0`` asks for the
    materialized fast path where the format permits.
    """
    path = Path(path)
    if path.is_dir():
        return ChunkedTrace(path)
    if path.suffix == ".npz":
        trace = Trace.load(str(path))
        if name is not None:
            trace.name = name  # type: ignore[misc]
        return trace
    if chunk_requests > 0:
        return ExternalTraceReader(path, name=name, chunk_requests=chunk_requests)
    return read_external_trace(path, name=name)


def write_trace_source(
    source: TraceSource, destination: Union[str, Path], chunk_requests: int
) -> str:
    """Write ``source`` in the format ``destination`` names, the
    inverse of :func:`open_trace_source`: ``*.npz``, a text suffix
    (:data:`TEXT_SUFFIXES`), or else a chunked directory of
    ``chunk_requests``-request segments. Returns a one-line summary
    of what was written.
    """
    dst = Path(destination)
    if dst.suffix == ".npz":
        trace = materialize(source)
        trace.save(str(dst))
        return f"wrote {dst} (npz, {len(trace)} requests)"
    if dst.suffix in TEXT_SUFFIXES:
        count = write_external_trace(source, dst)
        return f"wrote {dst} (external text, {count} requests)"
    chunked = ChunkedTrace.write(
        source.chunks(), dst, name=source.name, chunk_requests=chunk_requests
    )
    return (
        f"wrote {dst}/ (chunked, {len(chunked)} requests in"
        f" {chunked.n_segments} segments of {chunk_requests})"
    )


def materialize(source: TraceSource) -> Trace:
    """Any trace source as one in-RAM ``Trace`` (tools, attack mixes).

    A ``Trace`` passes through untouched; chunked sources are
    concatenated — deliberately explicit, because it trades the
    bounded-memory property away.
    """
    if isinstance(source, Trace):
        return source
    parts = [
        (
            np.asarray(c.gaps_ns, dtype=np.float64),
            np.asarray(c.rows, dtype=np.int64),
            np.asarray(c.lines, dtype=np.int32),
            np.asarray(c.writes, dtype=bool),
        )
        for c in source.chunks()
    ]
    if not parts:
        return Trace(
            np.empty(0), np.empty(0, np.int64), np.empty(0, np.int32),
            np.empty(0, bool), name=getattr(source, "name", "trace"),
        )
    return Trace(
        gaps_ns=np.concatenate([p[0] for p in parts]),
        rows=np.concatenate([p[1] for p in parts]),
        lines=np.concatenate([p[2] for p in parts]),
        writes=np.concatenate([p[3] for p in parts]),
        name=getattr(source, "name", "trace"),
    )


def source_duration_ns(source: TraceSource) -> float:
    """Sum of inter-arrival gaps, streamed (program-intent duration)."""
    total = 0.0
    for chunk in source.chunks():
        total += float(np.asarray(chunk.gaps_ns, dtype=np.float64).sum())
    return total


def source_request_count(source: TraceSource) -> int:
    """Number of requests in a source, without materializing it."""
    length = getattr(source, "__len__", None)
    if length is not None:
        return len(source)  # type: ignore[arg-type]
    return sum(len(chunk) for chunk in source.chunks())
