"""Tests for the streaming trace substrate (chunked + external).

The contract under test everywhere: a chunked representation yields
exactly the tuples the materialized trace would, in the same order,
computed with the same arithmetic — DESIGN.md §13's chunk-boundary
invariant. End-to-end RunResult parity lives in
``tests/sim/test_stream_parity.py``; this file covers the substrate
itself.
"""

import numpy as np
import pytest

from repro.workloads.streaming import (
    DEFAULT_STREAM_CHUNK,
    ChunkedTrace,
    ExternalTraceReader,
    TraceChunk,
    TraceSource,
    characterize_chunks,
    materialize,
    open_trace_source,
    read_external_trace,
    source_duration_ns,
    source_request_count,
    write_external_trace,
)
from repro.workloads.trace import Trace, characterize


def _trace(n=1000, seed=7, name="t"):
    rng = np.random.default_rng(seed)
    return Trace(
        gaps_ns=rng.uniform(0.5, 20.0, n),
        rows=rng.integers(0, 512, n, dtype=np.int64),
        lines=rng.integers(1, 5, n).astype(np.int32),
        writes=rng.random(n) < 0.3,
        name=name,
    )


class TestTraceChunk:
    def test_of_is_a_view(self):
        trace = _trace(10)
        chunk = TraceChunk.of(trace)
        assert chunk.rows is trace.rows
        assert len(chunk) == 10

    def test_slice(self):
        chunk = TraceChunk.of(_trace(10))
        part = chunk.slice(2, 5)
        assert len(part) == 3
        assert part.rows.tolist() == chunk.rows.tolist()[2:5]


class TestTraceSourceProtocol:
    def test_trace_satisfies_protocol(self):
        assert isinstance(_trace(4), TraceSource)

    def test_chunked_and_external_satisfy_protocol(self, tmp_path):
        trace = _trace(8)
        chunked = ChunkedTrace.from_trace(trace, tmp_path / "c")
        assert isinstance(chunked, TraceSource)
        write_external_trace(trace, tmp_path / "t.trc")
        assert isinstance(ExternalTraceReader(tmp_path / "t.trc"), TraceSource)


class TestChunkedTrace:
    def test_roundtrip_is_bit_identical(self, tmp_path):
        trace = _trace(500)
        chunked = ChunkedTrace.from_trace(trace, tmp_path / "c", chunk_requests=64)
        back = materialize(chunked)
        assert back.name == trace.name
        np.testing.assert_array_equal(back.gaps_ns, trace.gaps_ns)
        np.testing.assert_array_equal(back.rows, trace.rows)
        np.testing.assert_array_equal(back.lines, trace.lines)
        np.testing.assert_array_equal(back.writes, trace.writes)
        assert back.gaps_ns.dtype == np.float64
        assert back.rows.dtype == np.int64
        assert back.lines.dtype == np.int32
        assert back.writes.dtype == np.bool_

    def test_segments_have_exact_size(self, tmp_path):
        chunked = ChunkedTrace.from_trace(
            _trace(250), tmp_path / "c", chunk_requests=64
        )
        sizes = [len(chunk) for chunk in chunked.chunks()]
        assert sizes == [64, 64, 64, 58]
        assert len(chunked) == 250
        assert chunked.n_segments == 4

    def test_write_rechunks_uneven_input(self, tmp_path):
        """Segment boundaries are independent of input chunking."""
        trace = _trace(200)
        whole = TraceChunk.of(trace)
        uneven = [whole.slice(0, 7), whole.slice(7, 130), whole.slice(130, 200)]
        chunked = ChunkedTrace.write(
            uneven, tmp_path / "c", name="t", chunk_requests=50
        )
        assert [len(c) for c in chunked.chunks()] == [50, 50, 50, 50]
        np.testing.assert_array_equal(materialize(chunked).rows, trace.rows)

    def test_iteration_matches_trace(self, tmp_path):
        trace = _trace(300)
        chunked = ChunkedTrace.from_trace(trace, tmp_path / "c", chunk_requests=77)
        assert list(chunked) == list(trace)

    def test_resolved_stream_matches_trace(self, tmp_path):
        trace = _trace(300)
        chunked = ChunkedTrace.from_trace(trace, tmp_path / "c", chunk_requests=77)
        assert list(chunked.resolved_stream(128, 4)) == list(
            trace.resolved_stream(128, 4)
        )

    def test_chunks_are_memory_mapped(self, tmp_path):
        chunked = ChunkedTrace.from_trace(_trace(100), tmp_path / "c")
        chunk = next(chunked.chunks())
        assert isinstance(chunk.rows, np.memmap)

    def test_rejects_non_chunked_directory(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            ChunkedTrace(tmp_path)

    def test_delete_removes_directory(self, tmp_path):
        chunked = ChunkedTrace.from_trace(_trace(10), tmp_path / "c")
        chunked.delete()
        assert not (tmp_path / "c").exists()

    def test_rejects_bad_chunk_requests(self, tmp_path):
        with pytest.raises(ValueError):
            ChunkedTrace.write([], tmp_path / "c", chunk_requests=0)


class TestExternalFormat:
    def test_roundtrip_is_bit_identical(self, tmp_path):
        """repr() floats round-trip exactly, so replay loses nothing."""
        trace = _trace(400)
        path = tmp_path / "t.trc"
        count = write_external_trace(trace, path)
        assert count == 400
        back = read_external_trace(path)
        assert back.name == "t"
        np.testing.assert_array_equal(back.gaps_ns, trace.gaps_ns)
        np.testing.assert_array_equal(back.rows, trace.rows)
        np.testing.assert_array_equal(back.lines, trace.lines)
        np.testing.assert_array_equal(back.writes, trace.writes)

    def test_reader_streams_in_chunks(self, tmp_path):
        trace = _trace(100)
        path = tmp_path / "t.trc"
        write_external_trace(trace, path)
        reader = ExternalTraceReader(path, chunk_requests=30)
        assert [len(c) for c in reader.chunks()] == [30, 30, 30, 10]
        assert list(reader) == list(trace)

    def test_comments_blanks_and_default_lines(self, tmp_path):
        path = tmp_path / "t.trc"
        path.write_text(
            "# header comment\n"
            "\n"
            "5.0 R 17  # trailing comment, n_lines defaults to 1\n"
            "2.5 W 0x20 4\n"
        )
        reader = ExternalTraceReader(path)
        assert list(reader) == [(5.0, 17, 1, False), (2.5, 32, 4, True)]

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "memcached.trc"
        path.write_text("1.0 R 1\n")
        assert ExternalTraceReader(path).name == "memcached"

    @pytest.mark.parametrize(
        "line,match",
        [
            ("5.0 R", "expected"),
            ("5.0 R 1 2 3", "expected"),
            ("x R 1", "malformed numeric"),
            ("5.0 Q 1", "access type"),
            ("5.0 R -1", "row_id"),
            ("5.0 R 1 0", "n_lines"),
        ],
    )
    def test_malformed_lines_report_location(self, tmp_path, line, match):
        path = tmp_path / "t.trc"
        path.write_text("1.0 R 1\n" + line + "\n")
        with pytest.raises(ValueError, match=match) as err:
            list(ExternalTraceReader(path))
        assert ":2:" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ExternalTraceReader(tmp_path / "nope.trc")


class TestOpenTraceSource:
    def test_directory_opens_chunked(self, tmp_path):
        ChunkedTrace.from_trace(_trace(10), tmp_path / "c")
        assert isinstance(open_trace_source(tmp_path / "c"), ChunkedTrace)

    def test_npz_opens_materialized(self, tmp_path):
        _trace(10).save(str(tmp_path / "t.npz"))
        source = open_trace_source(tmp_path / "t.npz")
        assert isinstance(source, Trace)

    def test_text_streams_when_chunked_else_materializes(self, tmp_path):
        write_external_trace(_trace(10), tmp_path / "t.trc")
        assert isinstance(
            open_trace_source(tmp_path / "t.trc", chunk_requests=4),
            ExternalTraceReader,
        )
        assert isinstance(open_trace_source(tmp_path / "t.trc"), Trace)


class TestRecordedTraceValidation:
    """Recorded ``.npz`` and chunked traces obey the text reader's
    rules (row_id >= 0, n_lines >= 1), checked at load on both engines
    with an error naming the file (and the segment)."""

    #: defect -> (rows, lines, index of the bad request)
    BAD = {
        "negative_row": ([1, 2, -3, 4], [1, 1, 1, 1], 2),
        "empty_burst": ([1, 2, 3, 4], [1, 1, 1, 0], 3),
    }

    @staticmethod
    def _bad_trace(rows, lines):
        # The constructor does not validate, so a bad trace can be
        # recorded; loading it back is what must refuse it.
        return Trace(
            gaps_ns=np.full(len(rows), 10.0),
            rows=np.asarray(rows, dtype=np.int64),
            lines=np.asarray(lines, dtype=np.int32),
            writes=np.zeros(len(rows), dtype=bool),
        )

    @staticmethod
    def _replay(path, engine):
        from repro.sim.config import SystemConfig
        from repro.sim.simulator import _clear_trace_memo, simulate_workload

        config = (
            SystemConfig(scale=1 / 512, n_windows=1)
            .with_engine(engine)
            .with_trace_file(str(path))
        )
        _clear_trace_memo()
        try:
            return simulate_workload(config, "baseline", "GUPS")
        finally:
            _clear_trace_memo()

    @pytest.mark.parametrize("defect", sorted(BAD))
    @pytest.mark.parametrize("engine", ["fast", "queued"])
    def test_npz_rejected_on_both_engines(self, tmp_path, engine, defect):
        rows, lines, index = self.BAD[defect]
        path = tmp_path / "bad.npz"
        self._bad_trace(rows, lines).save(str(path))
        with pytest.raises(ValueError, match="row_id must be >= 0") as err:
            self._replay(path, engine)
        assert str(path) in str(err.value)
        assert f"request {index}:" in str(err.value)

    @pytest.mark.parametrize("defect", sorted(BAD))
    @pytest.mark.parametrize("engine", ["fast", "queued"])
    def test_chunked_rejected_on_both_engines(self, tmp_path, engine, defect):
        rows, lines, index = self.BAD[defect]
        directory = tmp_path / "bad"
        ChunkedTrace.from_trace(
            self._bad_trace(rows, lines), directory, chunk_requests=2
        )
        with pytest.raises(ValueError, match="row_id must be >= 0") as err:
            self._replay(directory, engine)
        message = str(err.value)
        assert str(directory) in message
        # The bad request is the segment's own request index - 2.
        assert f"segment 1 (seg-00001): request {index - 2}:" in message

    def test_error_names_the_first_bad_request(self, tmp_path):
        path = tmp_path / "bad.npz"
        self._bad_trace([1, 2, -3, 4], [1, 0, 1, 1]).save(str(path))
        with pytest.raises(ValueError, match=r"request 1: .*n_lines=0"):
            Trace.load(str(path))


class TestCharacterizeChunks:
    def test_matches_materialized_characterize(self, tmp_path):
        trace = _trace(2000, seed=3)
        chunked = ChunkedTrace.from_trace(trace, tmp_path / "c", chunk_requests=129)
        assert characterize_chunks(chunked) == characterize(trace)

    def test_coalesces_across_chunk_boundaries(self, tmp_path):
        """A chunk starting with the previous chunk's last row is the
        same activation, exactly as in the concatenated array."""
        trace = Trace.from_rows([1, 1, 1, 1, 2, 2, 2, 2])
        chunked = ChunkedTrace.from_trace(trace, tmp_path / "c", chunk_requests=3)
        stats = characterize_chunks(chunked)
        assert stats.activations == 2
        assert stats == characterize(trace)

    def test_empty_source(self, tmp_path):
        chunked = ChunkedTrace.write([], tmp_path / "c", chunk_requests=4)
        stats = characterize_chunks(chunked)
        assert stats.activations == 0
        assert stats.unique_rows == 0


class TestHelpers:
    def test_materialize_passes_trace_through(self):
        trace = _trace(5)
        assert materialize(trace) is trace

    def test_duration_and_count(self, tmp_path):
        trace = _trace(50)
        chunked = ChunkedTrace.from_trace(trace, tmp_path / "c", chunk_requests=7)
        assert source_duration_ns(chunked) == pytest.approx(
            float(trace.gaps_ns.sum())
        )
        assert source_request_count(chunked) == 50
        write_external_trace(trace, tmp_path / "t.trc")
        reader = ExternalTraceReader(tmp_path / "t.trc", chunk_requests=7)
        assert source_request_count(reader) == 50

    def test_default_chunk_is_sane(self):
        assert DEFAULT_STREAM_CHUNK == 65536
