"""The resolved stream's contract (hypothesis).

Every trace source replays through ``resolved_chunk_stream``, which
reads each chunk through lazy column views. It must yield exactly what
its scalar twin ``memctrl.base._resolve`` yields from the same requests
as plain Python values: the same ``(gap_ns, row_id, bank_index,
n_lines, is_write)`` tuples, each value a plain ``float``, ``int`` or
``bool`` (never a numpy scalar), and the same ``LineTotals``. Whatever
layout the input arrays have (big-endian, strided, read-only, empty),
and whether the chunks come from memory, mmapped segments or the text
reader.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memctrl.base import _resolve
from repro.workloads.streaming import (
    ChunkedTrace,
    ExternalTraceReader,
    write_external_trace,
)
from repro.workloads.trace import (
    LineTotals,
    Trace,
    TraceChunk,
    resolved_chunk_stream,
)

REQUEST = st.tuples(
    st.floats(min_value=0.0, allow_infinity=False),
    # Row ids past 2**31 as well as small ones.
    st.one_of(
        st.integers(min_value=0, max_value=4096),
        st.integers(min_value=2**31 - 2, max_value=2**40),
    ),
    st.integers(min_value=1, max_value=64),
    st.booleans(),
)
REQUESTS = st.lists(REQUEST, max_size=40)
ROWS_PER_BANK = st.sampled_from([1, 7, 128, 2**17, 2**33])
LAYOUTS = ("native", "big_endian", "strided", "read_only")
TYPES = (float, int, int, int, bool)


def _arrays(requests, layout):
    """The requests as the four column arrays, laid out as ``layout``
    says: byte-swapped, every other element of a longer array, or not
    writable."""
    gaps = np.array([r[0] for r in requests], dtype=np.float64)
    rows = np.array([r[1] for r in requests], dtype=np.int64)
    lines = np.array([r[2] for r in requests], dtype=np.int32)
    writes = np.array([r[3] for r in requests], dtype=bool)
    columns = [gaps, rows, lines, writes]
    if layout == "big_endian":
        columns = [c.astype(c.dtype.newbyteorder(">")) for c in columns]
    elif layout == "strided":
        columns = [np.repeat(c, 2)[::2] for c in columns]
    elif layout == "read_only":
        for column in columns:
            column.flags.writeable = False
    return TraceChunk(*columns)


def _expected(requests, rows_per_bank):
    totals = LineTotals()
    plain = [(float(g), int(r), int(n), bool(w)) for g, r, n, w in requests]
    tuples = list(_resolve(plain, rows_per_bank, totals))
    return tuples, totals


def _assert_same(stream, totals, requests, rows_per_bank):
    tuples = list(stream)
    expected, expected_totals = _expected(requests, rows_per_bank)
    assert len(tuples) == len(expected)
    for got, want in zip(tuples, expected):
        assert got == want
        assert tuple(type(value) for value in got) == TYPES
    assert totals.requests == expected_totals.requests == len(requests)
    assert totals.lines == expected_totals.lines
    assert totals.write_lines == expected_totals.write_lines
    assert totals.lines == sum(r[2] for r in requests)
    assert totals.write_lines == sum(r[2] for r in requests if r[3])


@settings(max_examples=200, deadline=None)
@given(
    chunks=st.lists(st.tuples(REQUESTS, st.sampled_from(LAYOUTS)), max_size=4),
    rows_per_bank=ROWS_PER_BANK,
)
def test_chunk_stream_equals_scalar_twin(chunks, rows_per_bank):
    """Empty chunks, empty streams and every layout included."""
    totals = LineTotals()
    stream = resolved_chunk_stream(
        (_arrays(requests, layout) for requests, layout in chunks),
        rows_per_bank,
        totals,
    )
    requests = [request for chunk_requests, _ in chunks for request in chunk_requests]
    _assert_same(stream, totals, requests, rows_per_bank)


@settings(max_examples=40, deadline=None)
@given(
    requests=REQUESTS,
    segment=st.integers(min_value=1, max_value=16),
    rows_per_bank=ROWS_PER_BANK,
)
def test_mmapped_and_text_sources_equal_scalar_twin(requests, segment, rows_per_bank):
    """A ``ChunkedTrace`` (mmapped segments) and the text reader, each
    cut into ``segment``-request chunks."""
    chunk = _arrays(requests, "native")
    trace = Trace(chunk.gaps_ns, chunk.rows, chunk.lines, chunk.writes)
    with tempfile.TemporaryDirectory() as tmp:
        chunked = ChunkedTrace.from_trace(trace, Path(tmp) / "c", segment)
        text = Path(tmp) / "t.trc"
        write_external_trace(trace, text)
        reader = ExternalTraceReader(text, chunk_requests=segment)
        for source in (trace, chunked, reader):
            totals = LineTotals()
            stream = source.resolved_stream(rows_per_bank, totals)
            _assert_same(stream, totals, requests, rows_per_bank)
