"""Cross-engine parity: fast and queued behind one axis.

The tentpole guarantee of the engine refactor: all memory-controller
engines run through one ``simulate()`` path, emit one ``RunResult``
schema, agree on tracker-visible behaviour where scheduling cannot
change it, and never share cache entries.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.memctrl import (
    ENGINES,
    MemoryController,
    QueuedMemoryController,
    build_controller,
    normalize_engine,
)
from repro.service import SweepBroker, worker
from repro.service.http import SweepService
from repro.sim import SystemConfig, cell_key, simulate, simulate_workload
from repro.sim import sweep
from repro.sim.grid import GridSpec
from repro.sim.results import RunResult
from repro.trackers.registry import canonical_spec, parse_spec, spec_engine
from repro.workloads.trace import Trace

CONFIG = SystemConfig(scale=1 / 128, n_windows=1)


def make_trace(rows, gap=50.0, writes=None, name="synthetic"):
    n = len(rows)
    writes = writes if writes is not None else [False] * n
    return Trace(
        gaps_ns=np.full(n, gap),
        rows=np.asarray(rows),
        lines=np.ones(n, dtype=np.int32),
        writes=np.asarray(writes, dtype=bool),
        name=name,
    )


def distinct_row_trace(config, n=400, gap=50.0):
    """Every request activates a distinct row: activation counts are
    then invariant under request reordering."""
    geometry = config.geometry
    banks = geometry.total_banks
    rows = [
        (i % banks) * geometry.rows_per_bank + i // banks for i in range(n)
    ]
    assert len(set(rows)) == n
    return make_trace(rows, gap=gap)


class TestEngineSelection:
    def test_engines_catalogue(self):
        assert ENGINES == ("fast", "queued")
        for engine in ENGINES:
            assert normalize_engine(engine) == engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            normalize_engine("warp")
        with pytest.raises(ValueError, match="engine"):
            SystemConfig(engine="warp")

    def test_build_controller_classes(self):
        fast = build_controller("fast", CONFIG.geometry, CONFIG.timing)
        queued = build_controller("queued", CONFIG.geometry, CONFIG.timing)
        assert isinstance(fast, MemoryController)
        assert isinstance(queued, QueuedMemoryController)
        assert fast.engine == "fast" and queued.engine == "queued"

    def test_with_engine(self):
        queued = CONFIG.with_engine("queued")
        assert queued.engine == "queued"
        assert CONFIG.engine == "fast"  # original untouched


class TestRunResultParity:
    def test_identical_schema_from_both_engines(self):
        fields = None
        for engine in ENGINES:
            result = simulate_workload(
                CONFIG.with_engine(engine), "baseline", "xz"
            )
            assert isinstance(result, RunResult)
            assert result.engine == engine
            names = [f.name for f in dataclasses.fields(result)]
            if fields is None:
                fields = names
            assert names == fields
            # The full reporting surface works on either engine.
            assert result.dram_power_w > 0
            assert 0.0 < result.bus_utilization <= 1.0
            assert result.requests > 0
            assert "total_delay_ns" in result.extra

    def test_queued_extras_exposed(self):
        result = simulate_workload(
            CONFIG.with_engine("queued"), "hydra", "xz"
        )
        for key in ("read_queue_peak", "forced_write_drains", "meta_writes"):
            assert key in result.extra

    def test_baseline_activation_counts_match(self):
        counts = {}
        for engine in ENGINES:
            trace = distinct_row_trace(CONFIG)
            result = simulate(trace, CONFIG.with_engine(engine), "baseline")
            counts[engine] = result.activations
            assert result.requests == len(trace)
        assert counts["fast"] == counts["queued"] > 0

    def test_dcbf_delay_visible_on_both_engines(self):
        # Long double-sided hammer: FR-FCFS row-hit batching legitimately
        # absorbs many alternating activations, so the queued engine
        # needs a longer stream to push a row past D-CBF's blacklist
        # threshold than the fast engine does.
        trace = make_trace([7, 9] * 8000, gap=10.0, name="hammer")
        for engine in ENGINES:
            result = simulate(trace, CONFIG.with_engine(engine), "dcbf")
            assert result.extra["total_delay_ns"] > 0.0, engine


class TestEngineCacheKeys:
    def test_config_engine_changes_cell_key(self):
        fast = cell_key(CONFIG, "hydra", "xz")
        queued = cell_key(CONFIG.with_engine("queued"), "hydra", "xz")
        assert fast != queued

    def test_spec_engine_changes_cell_key(self):
        bare = cell_key(CONFIG, "hydra", "xz")
        override = cell_key(CONFIG, "hydra@engine=queued", "xz")
        assert bare != override

    def test_vector_spec_keys_separately(self):
        keys = {
            cell_key(CONFIG, f"hydra@engine={engine}", "xz")
            for engine in ENGINES
        }
        assert len(keys) == len(ENGINES)
        # The retired vector engine cannot mint a cache key of its own,
        # neither through a spec override nor through the config.
        with pytest.raises(ValueError, match="removed"):
            cell_key(CONFIG, "hydra@engine=vector", "xz")
        with pytest.raises(ValueError, match="removed"):
            CONFIG.with_engine("vector")

    def test_trace_key_engine_agnostic(self):
        assert CONFIG.trace_key() == CONFIG.with_engine("queued").trace_key()
        assert CONFIG.trace_key() != SystemConfig(
            scale=1 / 128, n_windows=2
        ).trace_key()


class TestEngineSweeps:
    def test_run_grid_queued_through_shared_cache(self, tmp_path):
        from repro.sim import ExperimentRunner

        workloads = ["xz", "mcf"]
        trackers = ["baseline", "hydra"]
        fast = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        queued = ExperimentRunner(
            CONFIG.with_engine("queued"), cache_dir=tmp_path
        )
        fast_grid = fast.run_grid(
            GridSpec(trackers=tuple(trackers), workloads=tuple(workloads)),
            progress=False,
        )
        queued_grid = queued.run_grid(
            GridSpec(trackers=tuple(trackers), workloads=tuple(workloads)),
            progress=False,
        )
        for tracker in trackers:
            for wl in workloads:
                assert fast_grid[tracker][wl].engine == "fast"
                assert queued_grid[tracker][wl].engine == "queued"
                assert queued_grid[tracker][wl].dram_power_w > 0
                assert 0 < queued_grid[tracker][wl].bus_utilization <= 1

        # A fresh runner on the shared cache dir serves queued results
        # from disk — and never hands back a fast result.
        rerun = ExperimentRunner(
            CONFIG.with_engine("queued"), cache_dir=tmp_path
        )
        again = rerun.run("hydra", "xz")
        assert again.engine == "queued"
        assert again.to_dict() == queued_grid["hydra"]["xz"].to_dict()


class TestSpecEngineAxis:
    def test_spec_engine_extraction(self):
        assert spec_engine("hydra") is None
        assert spec_engine("hydra@engine=queued") == "queued"
        assert spec_engine("hydra@trh=250,engine=fast") == "fast"

    def test_spec_engine_canonicalized(self):
        assert (
            canonical_spec("hydra@engine=queued , trh=250")
            == "hydra@engine=queued,trh=250"
        )
        assert (
            canonical_spec("hydra@trh=250, engine=fast")
            == "hydra@engine=fast,trh=250"
        )
        assert spec_engine("hydra@engine=fast") == "fast"

    def test_bad_engine_value_rejected(self):
        with pytest.raises(ValueError, match="not one of"):
            parse_spec("hydra@engine=warp")

    def test_spec_override_beats_config(self):
        result = simulate_workload(CONFIG, "baseline@engine=queued", "xz")
        assert result.engine == "queued"

    def test_conflicting_engine_argument_raises(self):
        # The spec or the config names the engine; simulate takes no
        # engine= argument that could contradict them.
        trace = distinct_row_trace(CONFIG, n=50)
        with pytest.raises(TypeError, match="engine"):
            simulate(trace, CONFIG, "baseline@engine=queued", engine="fast")

    def test_matching_engine_argument_allowed(self):
        # A spec engine= repeating the config's engine is no conflict.
        trace = distinct_row_trace(CONFIG, n=50)
        result = simulate(
            trace, CONFIG.with_engine("queued"), "baseline@engine=queued"
        )
        assert result.engine == "queued"


#: case -> (spec, a config holding another value, a config holding the
#: spec's value). Each spec parameter must beat the config field.
SPEC_BEATS_CONFIG = {
    "engine=queued over fast": (
        "hydra@engine=queued", CONFIG, CONFIG.with_engine("queued")
    ),
    "engine=fast over queued": (
        "hydra@engine=fast", CONFIG.with_engine("queued"), CONFIG
    ),
}


@pytest.mark.parametrize("case", sorted(SPEC_BEATS_CONFIG))
def test_spec_parameter_beats_config_field(case):
    """The spec's value wins, byte-identically to setting it on the
    config."""
    spec, other, same = SPEC_BEATS_CONFIG[case]
    via_spec = simulate_workload(other, spec, "xz")
    via_config = simulate_workload(same, "hydra", "xz")
    assert via_spec.to_dict() == via_config.to_dict()
    assert via_spec.engine == same.engine


def _http_submit_error(tmp_path, grid: dict) -> str:
    """POST ``grid`` to ``/jobs`` (socket-free); the 400's error text."""
    broker = SweepBroker(
        state_dir=tmp_path / "state",
        cache_dir=tmp_path / "cache",
        pool="inline",
    )
    try:
        body = json.dumps({"grid": grid}).encode()
        status, payload = SweepService(broker).dispatch("POST", "/jobs", body)
    finally:
        broker.shutdown(wait=False)
    assert status == 400
    return payload["error"]


def _raised(build) -> str:
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


REMOVED_MESSAGE = (
    "engine 'vector' was removed (it was bit-identical to 'fast' and"
    " slower); use engine='fast'"
)

_VECTOR_GRID = GridSpec(
    trackers=("hydra",), workloads=("xz",), config=CONFIG
).to_dict()

#: Every boundary an engine name crosses, each returning its error text.
REMOVED_ENGINE_ENTRY_POINTS = {
    "normalize_engine": lambda tmp: _raised(lambda: normalize_engine("vector")),
    "SystemConfig": lambda tmp: _raised(lambda: SystemConfig(engine="vector")),
    "with_engine": lambda tmp: _raised(lambda: CONFIG.with_engine("vector")),
    "spec_string": lambda tmp: _raised(
        lambda: parse_spec("hydra@engine=vector")
    ),
    "http_spec": lambda tmp: _http_submit_error(
        tmp, {**_VECTOR_GRID, "trackers": ["hydra@engine=vector"]}
    ),
    "http_config": lambda tmp: _http_submit_error(
        tmp,
        {**_VECTOR_GRID, "config": {**CONFIG.to_dict(), "engine": "vector"}},
    ),
}


@pytest.mark.parametrize("entry", sorted(REMOVED_ENGINE_ENTRY_POINTS))
def test_removed_vector_engine_rejected(entry, tmp_path):
    """One message names the removal and the replacement everywhere."""
    assert REMOVED_MESSAGE in REMOVED_ENGINE_ENTRY_POINTS[entry](tmp_path)


#: Universal parameters out of range: T_RH below 1.
BAD_UNIVERSAL_SPECS = ["hydra@trh=0", "hydra@trh=-3"]


@pytest.mark.parametrize("spec", BAD_UNIVERSAL_SPECS)
def test_bad_universal_param_rejected_where_parsed(spec, tmp_path, monkeypatch):
    """Every entry point refuses the spec by name before a cell runs."""
    named = repr(spec)
    assert named in _raised(lambda: parse_spec(spec))
    assert named in _raised(lambda: canonical_spec(spec))
    assert named in _raised(
        lambda: GridSpec(trackers=(spec,), workloads=("xz",), config=CONFIG)
    )
    assert named in _http_submit_error(
        tmp_path, {**_VECTOR_GRID, "trackers": [spec]}
    )

    def refuse(*args, **kwargs):
        raise AssertionError(f"run_cell called for {spec!r}")

    monkeypatch.setattr(worker, "run_cell", refuse)
    monkeypatch.setattr(sweep, "run_cell", refuse)
    # The key every cell path computes first (``GridSpec.cells`` shares
    # its formatter) refuses the spec before any cell could run.
    assert named in _raised(lambda: cell_key(CONFIG, spec, "xz"))
