"""Tests for the named-experiment registry."""

import json
from pathlib import Path

import pytest

from repro.sim.config import SystemConfig
from repro.sim.experiments import (
    RESULT_FILES,
    available_experiments,
    render,
    run_experiment,
)
from repro.sim.sweep import ExperimentRunner

CONFIG = SystemConfig(scale=1 / 256, n_windows=1)

#: The smallest system every entry runs on: the §5 battery's fixed
#: rows need the 8,192 rows of 1/512.
TOY = SystemConfig(scale=1 / 512, n_windows=1)

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        """Each committed result file has exactly one entry, and each
        entry names a committed file."""
        files = sorted(path.stem for path in RESULTS.glob("*.json"))
        assert sorted(RESULT_FILES.values()) == files
        assert sorted(RESULT_FILES) == available_experiments()

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(KeyError, match="available"):
            run_experiment("fig99", CONFIG)


class TestAnalyticExperiments:
    """The storage experiments run instantly and return paper shapes."""

    def test_table1(self):
        payload = run_experiment("table1", CONFIG)
        assert payload[500]["Graphene"] == pytest.approx(340, rel=0.02)

    def test_table4(self):
        payload = run_experiment("table4", CONFIG)
        assert payload["total_kib"] == pytest.approx(56.5)

    def test_table5(self):
        payload = run_experiment("table5", CONFIG)
        assert payload["Hydra"]["ddr4_kib"] == payload["Hydra"]["ddr5_kib"]

    @pytest.mark.parametrize("trh", [250, 125])
    def test_table4_total_is_table5_hydra_row(self, trh):
        """Both tables size Hydra by ``SystemConfig.with_trh``."""
        config = CONFIG.with_trh(trh)
        total = run_experiment("table4", config)["total_kib"]
        assert total == run_experiment("table5", config)["Hydra"]["ddr4_kib"]
        assert total > 2 * 56


class _Simulates(Exception):
    pass


def _refuse_simulation(*args, **kwargs):
    raise _Simulates


def _keys(value):
    """A JSON value's key structure: every dict's keys, recursively."""
    if isinstance(value, dict):
        return {key: _keys(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_keys(item) for item in value]
    return None


@pytest.fixture(scope="module")
def toy_cache(tmp_path_factory):
    """One cell cache for every entry's toy run, so entries that share
    cells (fig5, fig8, sec68, ...) simulate each once."""
    return tmp_path_factory.mktemp("cells")


@pytest.mark.parametrize("name, result_file", sorted(RESULT_FILES.items()))
def test_registry_payload_is_the_committed_result_file(
    name, result_file, toy_cache, monkeypatch
):
    """The registry is the one definition of each result. Every entry
    runs on the toy system and its payload, after a JSON round trip,
    keeps the committed file's key structure. An entry that simulates
    no cell also runs at the benchmark scale, where its payload,
    rendered, is the committed file byte for byte; CI's
    ``paper-results`` job compares the others."""
    committed = (RESULTS / f"{result_file}.json").read_text()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(toy_cache))
    toy = json.loads(render(run_experiment(name, TOY)))
    assert _keys(toy) == _keys(json.loads(committed))

    for method in ("run", "run_grid"):
        monkeypatch.setattr(ExperimentRunner, method, _refuse_simulation)
    monkeypatch.setattr(
        "repro.sim.simulator.trace_for_workload", _refuse_simulation
    )
    try:
        payload = run_experiment(name, SystemConfig(scale=1 / 32))
    except _Simulates:
        return
    assert render(payload) == committed


class TestSimulationExperiment:
    def test_fig6_runs_at_tiny_scale(self):
        payload = run_experiment("fig6", CONFIG)
        assert set(payload) == {"per_workload", "averages"}
        assert len(payload["per_workload"]) == 36
        for dist in payload["per_workload"].values():
            assert set(dist) == {"gct_only", "rcc_hit", "rct_access"}
        assert set(payload["averages"]) == {"gct_only", "rcc_hit", "rct_access"}
