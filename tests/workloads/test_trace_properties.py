"""Properties of recorded traces and their statistics (hypothesis).

``check_requests`` is the one rule book for recorded traces: it must
refuse a trace exactly when some request breaks a rule, and name the
first such request. A trace that passes must survive the text format
and ``.npz`` save/load byte for byte. ``characterize`` must give a
chunked trace the statistics of its materialized concatenation,
whatever the segment size.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.streaming import (
    ChunkedTrace,
    open_trace_source,
    write_external_trace,
)
from repro.workloads.trace import Trace, TraceChunk, characterize, check_requests

GOOD_GAPS = st.floats(min_value=0.0, allow_infinity=False)
BAD_GAPS = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.floats(max_value=-1e-300, allow_infinity=False),
)


@st.composite
def recorded_requests(draw, plant_bad=True):
    """The arrays of up to 30 good requests, as a ``TraceChunk``, with a
    bad gap, row or burst length planted at a few drawn indices when
    ``plant_bad`` (a ``Trace`` refuses those when built)."""
    request = st.tuples(
        GOOD_GAPS,
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=1, max_value=64),
        st.booleans(),
    )
    requests = draw(st.lists(request, min_size=1, max_size=30))
    gaps, rows, lines, writes = map(list, zip(*requests))
    if plant_bad:
        indices = st.integers(min_value=0, max_value=len(requests) - 1)
        for index in draw(st.lists(indices, max_size=3)):
            field = draw(st.sampled_from(["gap", "row", "lines"]))
            if field == "gap":
                gaps[index] = draw(BAD_GAPS)
            elif field == "row":
                rows[index] = draw(st.integers(min_value=-(2**40), max_value=-1))
            else:
                lines[index] = draw(st.integers(min_value=-4, max_value=0))
    return TraceChunk(
        np.asarray(gaps, dtype=np.float64),
        np.asarray(rows, dtype=np.int64),
        np.asarray(lines, dtype=np.int32),
        np.asarray(writes, dtype=bool),
    )


def first_bad_request(trace):
    """The rules, one request at a time: the index of the first
    request that breaks one, or None."""
    columns = zip(trace.gaps_ns.tolist(), trace.rows.tolist(), trace.lines.tolist())
    for index, (gap, row, n_lines) in enumerate(columns):
        if not (math.isfinite(gap) and gap >= 0) or row < 0 or n_lines < 1:
            return index
    return None


def assert_same_requests(a, b):
    for column in ("gaps_ns", "rows", "lines", "writes"):
        left, right = getattr(a, column), getattr(b, column)
        assert left.dtype == right.dtype, column
        assert left.tobytes() == right.tobytes(), column


@settings(max_examples=200, deadline=None)
@given(recorded_requests())
def test_check_requests_refuses_exactly_the_bad_traces(chunk):
    """``check_requests`` and the ``Trace`` constructor alike."""
    first = first_bad_request(chunk)
    arrays = (chunk.gaps_ns, chunk.rows, chunk.lines)
    if first is None:
        check_requests(*arrays, "where")
        Trace(*arrays, chunk.writes, name="where")
    else:
        with pytest.raises(ValueError, match=rf"^where: request {first}: "):
            check_requests(*arrays, "where")
        with pytest.raises(ValueError, match=rf"^where: request {first}: "):
            Trace(*arrays, chunk.writes, name="where")


@settings(max_examples=50, deadline=None)
@given(recorded_requests(plant_bad=False))
def test_good_trace_round_trips_through_text_and_npz(chunk):
    trace = Trace(chunk.gaps_ns, chunk.rows, chunk.lines, chunk.writes, name="p")
    with tempfile.TemporaryDirectory() as tmp:
        text = Path(tmp) / "t.trc"
        assert write_external_trace(trace, text) == len(trace)
        assert_same_requests(open_trace_source(text), trace)

        npz = Path(tmp) / "t.npz"
        trace.save(str(npz))
        loaded = Trace.load(str(npz))
        assert_same_requests(loaded, trace)
        assert loaded.name == trace.name


def reference_statistics(rows, hot_threshold):
    """Table-3 statistics one request at a time: a request activates
    its row unless it repeats the previous request's row."""
    counts = {}
    previous = None
    for row in rows:
        if row != previous:
            counts[row] = counts.get(row, 0) + 1
        previous = row
    return (
        sum(counts.values()),
        len(counts),
        sum(1 for count in counts.values() if count > hot_threshold),
    )


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=60),
    segment=st.integers(min_value=1, max_value=60),
    hot_threshold=st.integers(min_value=0, max_value=4),
)
def test_chunked_characterize_matches_materialized(rows, segment, hot_threshold):
    if segment < len(rows):
        # A row repeated across the first segment boundary is one
        # activation, not two.
        rows[segment] = rows[segment - 1]
    trace = Trace.from_rows(rows, n_lines=2)
    expected = characterize(trace, hot_threshold=hot_threshold)
    assert (
        expected.activations,
        expected.unique_rows,
        expected.act250_rows,
    ) == reference_statistics(rows, hot_threshold)
    assert expected.line_transfers == 2 * len(rows)
    with tempfile.TemporaryDirectory() as tmp:
        chunked = ChunkedTrace.from_trace(
            trace, Path(tmp) / "c", chunk_requests=segment
        )
        assert characterize(chunked, hot_threshold=hot_threshold) == expected
