"""GridSpec value-object tests: validation, cells, canonical JSON."""

import re

import pytest

from repro.sim import grid as grid_module
from repro.sim.config import SystemConfig
from repro.sim.grid import GridSpec
from repro.sim.sweep import ExperimentRunner, cell_key
from repro.trackers.registry import BANK_SIZE
from repro.workloads.characteristics import all_names

CONFIG = SystemConfig(scale=1 / 256, n_windows=1)


class TestConstruction:
    def test_requires_a_tracker(self):
        with pytest.raises(ValueError):
            GridSpec(trackers=())

    def test_rejects_unknown_tracker_spec(self):
        with pytest.raises(ValueError, match="unknown tracker"):
            GridSpec(trackers=("not-a-tracker",))

    def test_rejects_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            GridSpec(trackers=("hydra",), workloads=("nope",))

    @pytest.mark.parametrize(
        "spec, reason",
        [
            ("hydra@gct_entries=1000", "power of two"),
            ("hydra@tg_fraction=2.0", "tg_fraction"),
            ("cra@cache_kb=1,cache_ways=3", "whole number of sets"),
        ],
    )
    def test_refuses_a_parameter_its_builder_refuses(self, spec, reason):
        """``check_trackers`` builds a spec with parameters once against
        the grid's config; the refusal names the spec and the reason."""
        grid = GridSpec(trackers=("baseline", spec), config=CONFIG)
        with pytest.raises(ValueError, match=re.escape(f"tracker spec {spec!r}: ")):
            grid.check_trackers()
        with pytest.raises(ValueError, match=reason):
            GridSpec(trackers=(spec,)).with_config(CONFIG).check_trackers()

    @pytest.mark.parametrize(
        "spec",
        [
            "cra@cache_ways=0",
            "hydra@rcc_kb=1,rcc_ways=0",
            "dcbf@counters_per_filter=1000000000",
            f"graphene@entries_per_bank={BANK_SIZE[1] + 1}",
        ],
    )
    def test_refuses_a_size_out_of_bounds(self, spec):
        """Sizes are bounded where the spec is parsed, so nothing is
        built (or allocated) for them."""
        with pytest.raises(ValueError, match=r"is not in \[1, \d+\]"):
            GridSpec(trackers=(spec,), config=CONFIG)

    def test_builds_once_and_only_when_checked(self, monkeypatch):
        """Only ``check_trackers`` builds, once per distinct spec with
        parameters; constructing, deriving and keying a grid build
        nothing."""
        built = []
        monkeypatch.setattr(
            grid_module, "build_tracker", lambda spec, config: built.append(spec)
        )
        trackers = ("baseline", "hydra", "hydra@trh=500", "hydra@trh=500")
        grid = GridSpec(trackers=trackers, workloads=("leela",), config=CONFIG)
        grid.with_config(CONFIG).canonical().grid_key()
        GridSpec.from_json(grid.to_json())
        assert built == []
        grid.check_trackers()
        assert built == ["hydra@trh=500"]

    def test_keeps_given_spellings(self):
        spec = GridSpec(trackers=("hydra@rcc_kb=28,trh=1000",))
        assert spec.trackers == ("hydra@rcc_kb=28,trh=1000",)

    def test_empty_workloads_resolve_to_all(self):
        spec = GridSpec(trackers=("hydra",))
        assert spec.resolved_workloads() == all_names()
        assert spec.n_cells() == len(all_names())


class TestConfigResolution:
    def test_own_config_wins(self):
        spec = GridSpec(trackers=("hydra",), config=CONFIG)
        assert spec.resolved_config() == CONFIG

    def test_no_config_anywhere_raises(self):
        with pytest.raises(ValueError):
            GridSpec(trackers=("hydra",)).resolved_config()

    def test_with_config(self):
        spec = GridSpec(trackers=("hydra",)).with_config(CONFIG)
        assert spec.config == CONFIG


class TestCells:
    def test_tracker_major_deterministic_order(self):
        spec = GridSpec(
            trackers=("baseline", "hydra"),
            workloads=("leela", "gcc"),
            config=CONFIG,
        )
        cells = list(spec.cells())
        assert [(c.tracker, c.workload) for c in cells] == [
            ("baseline", "leela"),
            ("baseline", "gcc"),
            ("hydra", "leela"),
            ("hydra", "gcc"),
        ]

    def test_cell_keys_match_runner_keys(self):
        spec = GridSpec(
            trackers=("hydra",), workloads=("leela",), config=CONFIG
        )
        (cell,) = spec.cells()
        assert cell.key == cell_key(CONFIG, "hydra", "leela")


class TestCanonicalJson:
    def test_round_trip_equality(self):
        spec = GridSpec(
            trackers=("hydra@trh=1000",), workloads=("leela",), config=CONFIG
        )
        assert GridSpec.from_json(spec.to_json()) == spec

    def test_round_trip_without_config(self):
        spec = GridSpec(trackers=("hydra",), workloads=("leela",))
        restored = GridSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.config is None

    def test_spelling_variants_share_grid_key(self):
        a = GridSpec(
            trackers=("hydra@trh=1000,rcc_kb=28",), workloads=("leela",)
        )
        b = GridSpec(
            trackers=("hydra@rcc_kb=28,trh=1000",), workloads=("leela",)
        )
        assert a.grid_key() == b.grid_key()
        assert a.to_json() != b.to_json()  # spellings preserved

    def test_different_grids_different_keys(self):
        a = GridSpec(trackers=("hydra",), workloads=("leela",))
        b = GridSpec(trackers=("baseline",), workloads=("leela",))
        assert a.grid_key() != b.grid_key()

    def test_explicit_full_suite_equals_default(self):
        a = GridSpec(trackers=("hydra",))
        b = GridSpec(trackers=("hydra",), workloads=tuple(all_names()))
        assert a.grid_key() == b.grid_key()


class TestRunnerIntegration:
    """run_grid takes a GridSpec only; compare a spec string only."""

    def test_run_grid_accepts_gridspec(self, tmp_path):
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        spec = GridSpec(
            trackers=("baseline",), workloads=("leela",), config=CONFIG
        )
        grid = runner.run_grid(spec, progress=False)
        assert list(grid) == ["baseline"]
        assert list(grid["baseline"]) == ["leela"]

    def test_conflicting_config_rejected(self, tmp_path):
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        other = GridSpec(
            trackers=("baseline",),
            workloads=("leela",),
            config=SystemConfig(scale=1 / 128),
        )
        with pytest.raises(ValueError, match="disagrees"):
            runner.run_grid(other)

    def test_gridspec_plus_workloads_rejected(self, tmp_path):
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        spec = GridSpec(
            trackers=("baseline",), workloads=("leela",), config=CONFIG
        )
        with pytest.raises(TypeError):
            runner.run_grid(spec, ["gcc"])

    def test_run_grid_rejects_positional_tracker_list(self, tmp_path):
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        with pytest.raises(TypeError, match="GridSpec"):
            runner.run_grid(["baseline"])

    def test_compare_rejects_single_tracker_gridspec(self, tmp_path):
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        spec = GridSpec(
            trackers=("hydra",), workloads=("leela",), config=CONFIG
        )
        with pytest.raises(TypeError, match="spec string"):
            runner.compare(spec)

    def test_compare_rejects_multi_tracker_gridspec(self, tmp_path):
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        spec = GridSpec(
            trackers=("hydra", "cra"), workloads=("leela",), config=CONFIG
        )
        with pytest.raises(TypeError, match="spec string"):
            runner.compare(spec)


class TestCellSpec:
    def test_each_cell_carries_its_canonical_spec(self):
        from repro.trackers.registry import canonical_spec

        spelled = "comet @ trh = 1000, counters_per_hash = 512"
        grid = GridSpec(
            trackers=("hydra", spelled),
            workloads=("leela", "gcc"),
            config=SystemConfig(scale=1 / 256),
        )
        cells = list(grid.cells())
        assert [cell.spec for cell in cells] == [
            canonical_spec(cell.tracker) for cell in cells
        ]
        assert cells[-1].tracker == spelled
        assert cells[-1].spec == "comet@counters_per_hash=512,trh=1000"
