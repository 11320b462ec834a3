"""Tests for the named-experiment registry."""

import json
from pathlib import Path

import pytest

from repro.sim.config import SystemConfig
from repro.sim.experiments import available_experiments, run_experiment

CONFIG = SystemConfig(scale=1 / 256, n_windows=1)

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        names = available_experiments()
        for expected in (
            "fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "fn4", "table1", "table4", "table5", "sec5",
        ):
            assert expected in names

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


@pytest.mark.parametrize(
    "name, result_file",
    [
        ("table1", "table1_storage"),
        ("table4", "table4_hydra_storage"),
        ("table5", "table5_total_sram"),
        ("sec5", "sec5_security"),
    ],
)
def test_registry_payload_is_the_committed_result_file(name, result_file):
    """The registry is the one definition of each result: at the
    benchmark scale its payload, serialized the way the benchmarks
    record it, is the committed file byte for byte."""
    payload = run_experiment(name, SystemConfig(scale=1 / 32))
    text = json.dumps(payload, indent=2, sort_keys=True)
    assert text == (RESULTS / f"{result_file}.json").read_text()


class TestSimulationExperiment:
    def test_fig6_runs_at_tiny_scale(self):
        payload = run_experiment("fig6", CONFIG)
        assert set(payload) == {"per_workload", "averages"}
        assert len(payload["per_workload"]) == 36
        for dist in payload["per_workload"].values():
            assert set(dist) == {"gct_only", "rcc_hit", "rct_access"}
        assert set(payload["averages"]) == {"gct_only", "rcc_hit", "rct_access"}
