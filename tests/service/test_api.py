"""repro.api facade tests: parity, blessed exports, deprecations."""

import json
import warnings

import pytest

from repro import api
from repro.sim import simulate, trace_for_workload
from repro.sim.config import SystemConfig
from repro.sim.grid import GridSpec

CONFIG = SystemConfig(scale=1 / 256, n_windows=1)


class TestRunParity:
    def test_run_byte_identical_to_simulate(self):
        via_api = api.run("hydra", workload="leela", config=CONFIG)
        direct = simulate(
            trace_for_workload(CONFIG, "leela"), CONFIG, "hydra"
        )
        assert json.dumps(via_api.to_dict(), sort_keys=True) == (
            json.dumps(direct.to_dict(), sort_keys=True)
        )

    def test_run_accepts_runspec(self):
        spec = api.RunSpec(tracker="baseline")
        result = api.run(spec, workload="leela", config=CONFIG)
        assert result.tracker == "baseline"

    def test_run_default_tracker(self):
        result = api.run(workload="leela", config=CONFIG)
        assert result.tracker == "hydra"


class TestSweepFacade:
    def test_sweep_local_handle(self, tmp_path):
        handle = api.sweep(
            ["baseline"],
            ["leela"],
            config=CONFIG,
            pool="thread",
            workers=1,
            state_dir=tmp_path / "state",
            cache_dir=tmp_path / "cache",
        )
        result = handle.result(timeout=120)
        assert list(result) == ["baseline"]
        assert handle.status().state == "completed"

    def test_sweep_gridspec_config_wins(self, tmp_path):
        grid = GridSpec.coerce(["baseline"], ["leela"], config=CONFIG)
        with pytest.raises(ValueError):
            api.sweep(
                grid,
                config=SystemConfig(scale=1 / 128),
                state_dir=tmp_path,
                cache_dir=tmp_path,
            )

    def test_sweep_rejects_gridspec_plus_workloads(self, tmp_path):
        grid = GridSpec.coerce(["baseline"], ["leela"], config=CONFIG)
        with pytest.raises(ValueError):
            api.sweep(grid, ["gcc"], state_dir=tmp_path, cache_dir=tmp_path)


class TestCompareFacade:
    def test_compare_matches_runner(self, tmp_path):
        from repro.sim.sweep import ExperimentRunner

        via_api = api.compare(
            "hydra",
            ["leela"],
            config=CONFIG,
            cache_dir=tmp_path / "a",
            progress=False,
        )
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path / "b")
        direct = runner.compare("hydra", ["leela"], progress=False)
        assert [c.workload for c in via_api] == [c.workload for c in direct]
        assert via_api.geomean() == direct.geomean()

    def test_compare_single_tracker_gridspec(self, tmp_path):
        grid = GridSpec.coerce(["hydra"], ["leela"], config=CONFIG)
        comparisons = api.compare(
            grid, cache_dir=tmp_path, progress=False
        )
        assert [c.workload for c in comparisons] == ["leela"]


class TestBlessedExports:
    def test_top_level_lazy_exports(self):
        import repro

        for name in (
            "run",
            "sweep",
            "compare",
            "RunSpec",
            "GridSpec",
            "RunResult",
            "GridResult",
            "list_trackers",
            "list_attacks",
        ):
            assert getattr(repro, name) is getattr(api, name)
            assert name in dir(repro)

    def test_unknown_attribute_still_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing

    def test_registries_list(self):
        assert "hydra" in api.list_trackers()
        assert "double_sided" in api.list_attacks()


class TestDeprecations:
    def test_blessed_path_does_not_warn(self):
        trace = trace_for_workload(CONFIG, "leela")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulate(trace, CONFIG, "baseline")
