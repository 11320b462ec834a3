"""Golden parity: every trace representation replays identically.

How a trace is *stored* never changes what the simulator *computes*.
These tests pin it end-to-end — the same workload run from an in-RAM
``Trace``, a chunked on-disk ``ChunkedTrace``, a round-tripped
external text file and plain tuples must produce byte-identical
``RunResult`` payloads on both engines, floats compared exactly. Also
covered: replay across the in-RAM trace's own chunk boundaries, the
per-window observability series across chunk boundaries, the
trace-file axis in cache keys, and the per-process trace memo.
"""

import sys
import threading

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
from repro.workloads import DEFAULT_STREAM_CHUNK
from repro.workloads.streaming import (
    ChunkedTrace,
    ExternalTraceReader,
    write_external_trace,
)
from repro.workloads.trace import Trace
from tests.memctrl.test_fused_loop import PlainTuples

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
def test_replay_crosses_in_memory_chunk_boundaries(tmp_path, engine):
    """A trace longer than one replay chunk: the in-RAM ``Trace`` (two
    parts, three chunks), the same requests as plain tuples resolved
    one at a time by the scalar reference, and a chunked directory cut
    at an odd segment size all produce one result."""
    rng = np.random.default_rng(26)
    config = CONFIG.with_engine(engine)
    rows_limit = config.geometry.rows_per_bank * config.geometry.total_banks
    parts = []
    for length in (DEFAULT_STREAM_CHUNK + 1234, 9001):
        parts.append(
            Trace(
                gaps_ns=rng.uniform(1.0, 9.0, length),
                rows=rng.integers(0, rows_limit, length),
                lines=rng.integers(1, 5, length),
                writes=rng.random(length) < 0.2,
                name="long",
            )
        )
    trace = Trace.concatenate(parts, name="long")
    assert len(trace) > DEFAULT_STREAM_CHUNK
    assert [len(chunk) for chunk in trace.chunks()] == [
        DEFAULT_STREAM_CHUNK, 1234, 9001
    ]
    chunked = ChunkedTrace.from_trace(trace, tmp_path / "odd", chunk_requests=4099)
    assert chunked.n_segments > 1
    results = [
        simulate(source, config, "hydra").to_dict()
        for source in (trace, PlainTuples(trace), chunked)
    ]
    assert results[0]["requests"] == len(trace)
    assert results[1] == results[0]
    assert results[2] == results[0]


def test_trace_file_replay_identical(tmp_path):
    """A recorded text trace replayed via config.trace_file matches the
    synthetic run it was recorded from."""
    trace = trace_for_workload(CONFIG, "GUPS")
    path = tmp_path / "gups.trc"
    write_external_trace(trace, path)
    direct = simulate(trace, CONFIG, "hydra").to_dict()
    replay_config = CONFIG.with_trace_file(str(path))
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
        """Synthetic-trace keys carry no trace-file suffix (the golden
        suite pins the whole strings); this is the targeted check."""
        assert "-tf" not in CONFIG.cache_key()
        assert "-tf" not in CONFIG.trace_key()

    def test_trace_file_separates_keys(self):
        replay = CONFIG.with_trace_file("/tmp/a.trc")
        assert replay.cache_key() != CONFIG.cache_key()
        assert replay.trace_key() != CONFIG.trace_key()
        other = CONFIG.with_trace_file("/tmp/b.trc")
        assert other.cache_key() != replay.cache_key()


class TestTraceMemo:
    def test_memo_holds_numpy_arrays_only(self):
        """A memoized trace costs its arrays (8+8+4+1 B per request),
        and replaying it adds no whole-trace state."""
        trace = trace_for_workload(CONFIG, "GUPS")
        assert isinstance(trace, Trace)
        assert trace.nbytes == 21 * len(trace)
        simulate_workload(CONFIG, "hydra", "GUPS")
        assert trace_for_workload(CONFIG, "GUPS") is trace
        assert trace.nbytes == 21 * len(trace)
        assert set(Trace.__slots__) == {"_parts", "name"}

    def test_memo_is_bounded_by_bytes(self, monkeypatch):
        names = ("GUPS", "mcf", "lbm")
        sizes = {}
        for name in names:
            sizes[name] = trace_for_workload(CONFIG, name).nbytes
        _clear_trace_memo()
        budget = sizes["GUPS"] + sizes["mcf"]
        monkeypatch.setattr("repro.sim.simulator._TRACE_MEMO_BYTES", budget)
        for name in names:
            trace_for_workload(CONFIG, name)
        held = [key[1] for key in _TRACE_MEMO]
        assert held[-1] == "lbm"
        assert "GUPS" not in held  # least recently replayed goes first
        assert sum(sizes[name] for name in held) <= budget
        # An entry over budget on its own is still kept while it is newest.
        monkeypatch.setattr("repro.sim.simulator._TRACE_MEMO_BYTES", 1)
        trace = trace_for_workload(CONFIG, "GUPS")
        assert list(_TRACE_MEMO.values()) == [trace]

    def test_memo_is_bounded_by_entries(self, monkeypatch):
        """Small traces of ever new configs (a long-lived server's cold
        jobs) stop at the entry cap, far below the byte budget."""
        monkeypatch.setattr("repro.sim.simulator._TRACE_MEMO_MAX", 3)
        for seed in range(5):
            trace_for_workload(SystemConfig(scale=1 / 1024, seed=seed), "GUPS")
        assert len(_TRACE_MEMO) == 3
        assert [key[0] for key in _TRACE_MEMO] == [
            SystemConfig(scale=1 / 1024, seed=seed).trace_key()
            for seed in (2, 3, 4)
        ]

    def test_concurrent_lookups_with_evictions_stay_exact(self, monkeypatch):
        """Pool threads share the memo: lookups racing evictions must
        neither raise nor hand back another workload's trace."""
        names = ("GUPS", "mcf", "lbm", "xz")
        lengths = {name: len(trace_for_workload(CONFIG, name)) for name in names}
        _clear_trace_memo()
        monkeypatch.setattr("repro.sim.simulator._TRACE_MEMO_BYTES", 1)
        errors = []

        def lookup(offset):
            try:
                for step in range(40):
                    name = names[(offset + step) % len(names)]
                    trace = trace_for_workload(CONFIG, name)
                    if trace.name != name or len(trace) != lengths[name]:
                        errors.append(name)
            except Exception as exc:  # reported below, with the rest
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lookup, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(_TRACE_MEMO) == 1

    def test_eviction_never_deletes_user_directories(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.sim.simulator._TRACE_MEMO_BYTES", 1)
        trace = trace_for_workload(CONFIG, "GUPS")
        user_dir = tmp_path / "mine"
        ChunkedTrace.from_trace(trace, user_dir, chunk_requests=CHUNK)
        _clear_trace_memo()
        config = CONFIG.with_trace_file(str(user_dir))
        opened = trace_for_workload(config, "GUPS")
        assert isinstance(opened, ChunkedTrace)
        trace_for_workload(CONFIG, "GUPS")  # evicts the directory
        assert (config.trace_key(), "GUPS") not in _TRACE_MEMO
        assert user_dir.exists()
        assert simulate_workload(config, "hydra", "GUPS").requests == len(trace)

    def test_external_trace_file_is_parsed_once(self, tmp_path):
        """A text trace replayed via ``trace_file`` is parsed once into
        in-RAM arrays; the memo then serves those."""
        trace = trace_for_workload(CONFIG, "GUPS")
        path = tmp_path / "gups.trc"
        write_external_trace(trace, path)
        config = CONFIG.with_trace_file(str(path))
        source = trace_for_workload(config, "GUPS")
        assert isinstance(source, Trace)
        assert source.name == "gups"
        np.testing.assert_array_equal(source.rows, trace.rows)
        assert trace_for_workload(config, "GUPS") is source
