"""Properties of the recorded-trace validators (hypothesis).

``check_requests`` is the one rule book for recorded traces: it must
refuse a trace exactly when some request breaks a rule, and name the
first such request. A trace that passes must survive the text format
and ``.npz`` save/load byte for byte.
"""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.streaming import open_trace_source, write_external_trace
from repro.workloads.trace import Trace, check_requests

GOOD_GAPS = st.floats(min_value=0.0, allow_infinity=False)
BAD_GAPS = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.floats(max_value=-1e-300, allow_infinity=False),
)


@st.composite
def recorded_requests(draw, plant_bad=True):
    """A trace of up to 30 good requests, with a bad gap, row or burst
    length planted at a few drawn indices when ``plant_bad``."""
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
    return Trace(gaps_ns=gaps, rows=rows, lines=lines, writes=writes, name="p")


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
def test_check_requests_refuses_exactly_the_bad_traces(trace):
    first = first_bad_request(trace)
    arrays = (trace.gaps_ns, trace.rows, trace.lines)
    if first is None:
        check_requests(*arrays, "where")
    else:
        with pytest.raises(ValueError, match=rf"^where: request {first}: "):
            check_requests(*arrays, "where")


@settings(max_examples=50, deadline=None)
@given(recorded_requests(plant_bad=False))
def test_good_trace_round_trips_through_text_and_npz(trace):
    with tempfile.TemporaryDirectory() as tmp:
        text = Path(tmp) / "t.trc"
        assert write_external_trace(trace, text) == len(trace)
        assert_same_requests(open_trace_source(text), trace)

        npz = Path(tmp) / "t.npz"
        trace.save(str(npz))
        loaded = Trace.load(str(npz))
        assert_same_requests(loaded, trace)
        assert loaded.name == trace.name
