"""Golden parity: chunked/streamed traces ≡ materialized traces.

The streaming substrate's whole value rests on one claim: how a trace
is *stored* never changes what the simulator *computes*. These tests
pin it end-to-end — the same workload run from an in-RAM ``Trace``, a
chunked on-disk ``ChunkedTrace``, and a round-tripped external text
file must produce byte-identical ``RunResult`` payloads on both
engines, floats compared exactly. Also covered: the per-window
observability series across chunk boundaries, the streaming axis in
cache keys, spec-level ``stream_chunk`` resolution, and the memo's
spooled-segment lifecycle.
"""

import numpy as np
import pytest

from repro.memctrl import ENGINES
from repro.sim.config import SystemConfig
from repro.sim.simulator import (
    _TRACE_MEMO,
    _clear_trace_memo,
    simulate,
    simulate_workload,
    trace_for_workload,
)
from repro.sim import simulator
from repro.trackers.registry import parse_spec
from repro.workloads.streaming import (
    ChunkedTrace,
    ExternalTraceReader,
    write_external_trace,
)

#: Small enough that the whole matrix stays fast; windows still reset.
CONFIG = SystemConfig(scale=1 / 128, n_windows=2)

#: Deliberately much smaller than a window's request count, so every
#: run crosses many chunk boundaries mid-window.
CHUNK = 1000


@pytest.fixture(autouse=True)
def clean_memo():
    _clear_trace_memo()
    yield
    _clear_trace_memo()


def _sources(tmp_path, config):
    trace = trace_for_workload(config, "GUPS")
    chunked = ChunkedTrace.from_trace(
        trace, tmp_path / "chunked", chunk_requests=CHUNK
    )
    text = tmp_path / "gups.trc"
    write_external_trace(trace, text)
    reader = ExternalTraceReader(text, name=trace.name, chunk_requests=CHUNK)
    return {"materialized": trace, "chunked": chunked, "external": reader}


@pytest.mark.parametrize("engine", ENGINES)
def test_all_representations_bit_identical(tmp_path, engine):
    config = CONFIG.with_engine(engine)
    sources = _sources(tmp_path, config)
    results = {
        label: simulate(source, config, "hydra").to_dict()
        for label, source in sources.items()
    }
    assert results["chunked"] == results["materialized"]
    assert results["external"] == results["materialized"]


@pytest.mark.parametrize("engine", ENGINES)
def test_simulate_workload_streaming_axis_identical(engine):
    """The full memo + spool path, not just hand-built sources."""
    config = CONFIG.with_engine(engine)
    materialized = simulate_workload(config, "hydra", "GUPS")
    streamed = simulate_workload(
        config.with_stream_chunk(CHUNK), "hydra", "GUPS"
    )
    assert streamed.to_dict() == materialized.to_dict()


def test_spec_param_streaming_identical():
    materialized = simulate_workload(CONFIG, "hydra", "GUPS")
    streamed = simulate_workload(CONFIG, f"hydra@stream_chunk={CHUNK}", "GUPS")
    assert streamed.to_dict() == materialized.to_dict()


def test_trace_file_replay_identical(tmp_path):
    """A recorded text trace replayed via config.trace_file matches the
    synthetic run it was recorded from."""
    trace = trace_for_workload(CONFIG, "GUPS")
    path = tmp_path / "gups.trc"
    write_external_trace(trace, path)
    direct = simulate(trace, CONFIG, "hydra").to_dict()
    replay_config = CONFIG.with_trace_file(str(path)).with_stream_chunk(CHUNK)
    replayed = simulate_workload(replay_config, "hydra", "GUPS").to_dict()
    # The replayed trace is named after the file stem; everything the
    # simulation computed must match exactly.
    assert replayed.pop("workload") == "gups"
    direct.pop("workload")
    assert replayed == direct


def test_observability_series_survives_chunk_boundaries(tmp_path):
    """Per-window series are sim-time driven, so chunk boundaries must
    be invisible: the observed run over a chunked source reports the
    exact same window samples as over the materialized trace."""
    sources = _sources(tmp_path, CONFIG)
    observed = {
        label: simulate(source, CONFIG, "hydra", observe=True)
        for label, source in sources.items()
    }
    base = observed["materialized"].observability.to_dict()
    assert observed["chunked"].observability.to_dict() == base
    assert observed["external"].observability.to_dict() == base


class TestStreamingKeys:
    def test_defaults_add_no_suffix(self):
        """Pre-streaming keys are byte-identical (cache stays warm) —
        also pinned by the golden suite; this is the targeted check."""
        assert CONFIG.cache_key() == CONFIG.with_stream_chunk(0).cache_key()
        assert "-sc" not in CONFIG.cache_key()
        assert "-tf" not in CONFIG.trace_key()

    def test_stream_chunk_separates_keys(self):
        streamed = CONFIG.with_stream_chunk(CHUNK)
        assert streamed.cache_key() != CONFIG.cache_key()
        assert streamed.trace_key() != CONFIG.trace_key()
        assert f"-sc{CHUNK}" in streamed.cache_key()

    def test_trace_file_separates_keys(self):
        replay = CONFIG.with_trace_file("/tmp/a.trc")
        assert replay.cache_key() != CONFIG.cache_key()
        assert replay.trace_key() != CONFIG.trace_key()
        other = CONFIG.with_trace_file("/tmp/b.trc")
        assert other.cache_key() != replay.cache_key()

    def test_negative_stream_chunk_rejected(self):
        with pytest.raises(ValueError):
            CONFIG.with_stream_chunk(-1)


def _simulated_config(monkeypatch, config, spec):
    """The config ``simulate_workload`` hands to ``simulate``."""
    seen = []
    monkeypatch.setattr(
        simulator,
        "simulate",
        lambda trace, config, spec, observe=None: seen.append(config),
    )
    monkeypatch.setattr(
        simulator, "trace_for_workload", lambda config, name: None
    )
    simulate_workload(config, spec, "GUPS")
    return seen[0]


class TestRunSpecStreamChunk:
    """A run's ``stream_chunk`` comes from its spec, then its config."""

    def test_resolution_order(self, monkeypatch):
        chunked = CONFIG.with_stream_chunk(CHUNK)
        cases = [
            (CONFIG, "hydra", 0),
            (CONFIG, f"hydra@stream_chunk={CHUNK}", CHUNK),
            (chunked, "hydra", CHUNK),
            (chunked, "hydra@stream_chunk=32", 32),
        ]
        for config, spec, expected in cases:
            resolved = _simulated_config(monkeypatch, config, spec)
            assert resolved.stream_chunk == expected, (config, spec)

    def test_conflicting_values_raise(self):
        with pytest.raises(ValueError, match="duplicate parameter"):
            parse_spec("hydra@stream_chunk=64,stream_chunk=32")

    def test_matching_values_allowed(self, monkeypatch):
        config = CONFIG.with_stream_chunk(64)
        assert (
            _simulated_config(monkeypatch, config, "hydra@stream_chunk=64")
            is config
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="stream_chunk"):
            parse_spec("hydra@stream_chunk=-1")

    def test_apply_stream_chunk(self, monkeypatch):
        applied = _simulated_config(
            monkeypatch, CONFIG, f"hydra@stream_chunk={CHUNK}"
        )
        assert applied == CONFIG.with_stream_chunk(CHUNK)
        assert _simulated_config(monkeypatch, CONFIG, "hydra") is CONFIG


class TestMemoSpool:
    def test_streamed_workload_memoizes_chunked_source(self):
        config = CONFIG.with_stream_chunk(CHUNK)
        source = trace_for_workload(config, "GUPS")
        assert isinstance(source, ChunkedTrace)
        assert source.directory.exists()
        # Memo hit: same object, no respool.
        assert trace_for_workload(config, "GUPS") is source

    def test_materialized_and_chunked_are_distinct_entries(self):
        materialized = trace_for_workload(CONFIG, "GUPS")
        chunked = trace_for_workload(CONFIG.with_stream_chunk(CHUNK), "GUPS")
        assert materialized is not chunked
        assert isinstance(chunked, ChunkedTrace)
        np.testing.assert_array_equal(
            chunked.materialize().rows, materialized.rows
        )

    def test_eviction_deletes_spooled_segments(self, monkeypatch):
        monkeypatch.setattr(
            "repro.sim.simulator._TRACE_MEMO_MAX", 1
        )
        first = trace_for_workload(CONFIG.with_stream_chunk(CHUNK), "GUPS")
        assert first.directory.exists()
        trace_for_workload(CONFIG.with_stream_chunk(CHUNK + 1), "GUPS")
        assert len(_TRACE_MEMO) == 1
        assert not first.directory.exists()

    def test_eviction_never_deletes_user_directories(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.sim.simulator._TRACE_MEMO_MAX", 1)
        trace = trace_for_workload(CONFIG, "GUPS")
        user_dir = tmp_path / "mine"
        ChunkedTrace.from_trace(trace, user_dir, chunk_requests=CHUNK)
        _clear_trace_memo()
        config = CONFIG.with_trace_file(str(user_dir))
        opened = trace_for_workload(config, "GUPS")
        assert isinstance(opened, ChunkedTrace)
        trace_for_workload(CONFIG.with_stream_chunk(CHUNK), "GUPS")  # evicts
        assert user_dir.exists()

    def test_external_trace_file_is_spooled_once(self, tmp_path):
        """Streaming replay of a text file parses it once into mmapped
        segments; the memo then serves the spooled segments."""
        trace = trace_for_workload(CONFIG, "GUPS")
        path = tmp_path / "gups.trc"
        write_external_trace(trace, path)
        config = CONFIG.with_trace_file(str(path)).with_stream_chunk(CHUNK)
        source = trace_for_workload(config, "GUPS")
        assert isinstance(source, ChunkedTrace)
        assert source.name == "gups"
        assert trace_for_workload(config, "GUPS") is source
