"""Typed results API: schema version, accessors, grid/comparison types."""

import pytest

from repro.sim.results import (
    SCHEMA_VERSION,
    WELL_KNOWN_EXTRAS,
    Comparison,
    ComparisonResult,
    GridResult,
    RunResult,
)


def make_result(workload="xz", tracker="hydra", end_time_ns=100.0, **extra):
    return RunResult(
        workload=workload,
        tracker=tracker,
        end_time_ns=end_time_ns,
        requests=1000,
        average_latency_ns=50.0,
        demand_line_transfers=2000,
        meta_accesses=30,
        meta_line_transfers=30,
        victim_refreshes=4,
        mitigations=2,
        window_resets=1,
        activations=900,
        bus_utilization=0.5,
        dram_power_w=3.3,
        extra=dict(extra),
    )


class TestSchemaVersion:
    def test_class_level_version(self):
        assert RunResult.schema_version == SCHEMA_VERSION
        assert make_result().schema_version == SCHEMA_VERSION

    def test_version_not_serialized(self):
        # Golden payloads predate the redesign; the version is a class
        # attribute, not a payload key.
        assert "schema_version" not in make_result().to_dict()

    def test_pre_redesign_payload_loads(self):
        # A cached payload written before this API existed: exactly the
        # dataclass fields, nothing else.
        payload = make_result(total_delay_ns=1.5).to_dict()
        restored = RunResult.from_dict(payload)
        assert restored == make_result(total_delay_ns=1.5)

    def test_unknown_keys_ignored(self):
        payload = make_result().to_dict()
        payload["added_in_schema_3"] = {"future": True}
        assert RunResult.from_dict(payload) == make_result()
        # Dropped from the result, not from the caller's payload (the
        # cell worker hands the loaded payload on as it was stored).
        assert payload["added_in_schema_3"] == {"future": True}

    def test_observability_never_loads_from_payload(self):
        payload = make_result().to_dict()
        payload["observability"] = {"series": {"period_ns": 1.0}}
        assert RunResult.from_dict(payload).observability is None

    def test_empty_payload_rejected(self):
        with pytest.raises(TypeError):
            RunResult.from_dict({})


class TestTypedAccessors:
    def test_well_known_extras_documented(self):
        for key in ("distribution", "total_delay_ns", "read_queue_peak"):
            assert key in WELL_KNOWN_EXTRAS

    def test_hydra_distribution(self):
        dist = {"gct_only": 0.9, "rcc_hit": 0.09, "rct_access": 0.01}
        assert make_result(distribution=dist).hydra_distribution == dist
        assert make_result().hydra_distribution is None

    def test_total_delay_ns(self):
        assert make_result(total_delay_ns=7.0).total_delay_ns == 7.0
        assert make_result().total_delay_ns == 0.0

    def test_flushed_writes(self):
        assert make_result(flushed_writes=3).flushed_writes == 3
        assert make_result().flushed_writes == 0

    def test_scheduler_counters_only_when_present(self):
        assert make_result().scheduler_counters == {}
        queued = make_result(read_queue_peak=12, forced_write_drains=2)
        assert queued.scheduler_counters == {
            "read_queue_peak": 12,
            "forced_write_drains": 2,
        }

    def test_requests_per_sim_second(self):
        result = make_result(end_time_ns=1e9)  # 1 simulated second
        assert result.requests_per_sim_second == pytest.approx(1000.0)
        assert make_result(end_time_ns=0.0).requests_per_sim_second == 0.0

    def test_window_series_none_without_observation(self):
        assert make_result().window_series is None

    def test_observability_excluded_from_equality_and_dict(self):
        from repro.obs import RunObservability, WindowSeries

        plain = make_result()
        observed = make_result()
        observed.observability = RunObservability(
            series=WindowSeries(period_ns=1.0)
        )
        assert observed == plain
        assert observed.to_dict() == plain.to_dict()
        assert "observability" not in observed.to_dict()


def comparison_set():
    # xz/mcf are SPEC workloads; GUPS is its own suite.
    return ComparisonResult(
        [
            Comparison("xz", "hydra", baseline_ns=100.0, tracked_ns=125.0),
            Comparison("mcf", "hydra", baseline_ns=100.0, tracked_ns=100.0),
            Comparison("GUPS", "hydra", baseline_ns=100.0, tracked_ns=110.0),
        ]
    )


class TestComparisonResult:
    def test_is_a_list(self):
        comparisons = comparison_set()
        assert len(comparisons) == 3
        assert comparisons[0].workload == "xz"

    def test_geomean(self):
        expected = (0.8 * 1.0 * (1 / 1.1)) ** (1 / 3)
        assert comparison_set().geomean() == pytest.approx(expected)

    def test_suite_geomeans_and_slowdowns(self):
        comparisons = comparison_set()
        means = comparisons.suite_geomeans()
        assert "ALL(36)" in means
        assert means["GUPS(1)"] == pytest.approx(1 / 1.1)
        slowdowns = comparisons.slowdowns()
        assert slowdowns["GUPS(1)"] == pytest.approx(10.0)

    def test_to_table(self):
        table = comparison_set().to_table()
        assert "xz" in table and "GUPS" in table
        assert "norm. perf" in table


class TestGridResult:
    def _grid(self):
        return GridResult(
            {
                "baseline": {
                    "xz": make_result("xz", "baseline", 100.0),
                    "mcf": make_result("mcf", "baseline", 200.0),
                },
                "hydra": {
                    "xz": make_result("xz", "hydra", 110.0),
                    "mcf": make_result("mcf", "hydra", 200.0),
                },
            }
        )

    def test_mapping_protocol_preserved(self):
        grid = self._grid()
        assert set(grid) == {"baseline", "hydra"}
        assert len(grid) == 2
        assert grid["hydra"]["xz"].end_time_ns == 110.0
        assert "baseline" in grid

    def test_trackers_and_workloads(self):
        grid = self._grid()
        assert grid.trackers == ["baseline", "hydra"]
        assert grid.workloads == ["xz", "mcf"]

    def test_comparisons(self):
        comparisons = self._grid().comparisons("hydra")
        assert isinstance(comparisons, ComparisonResult)
        assert [c.workload for c in comparisons] == ["xz", "mcf"]
        assert comparisons[0].normalized_performance == pytest.approx(
            100.0 / 110.0
        )

    def test_unknown_column_raises(self):
        with pytest.raises(KeyError):
            self._grid().comparisons("graphene")

    def test_geomean_single_and_all(self):
        grid = self._grid()
        single = grid.geomean("hydra")
        assert single == pytest.approx((100.0 / 110.0 * 1.0) ** 0.5)
        everything = grid.geomean()
        assert everything == {"hydra": single}

    def test_slowdowns_excludes_baseline(self):
        slowdowns = self._grid().slowdowns()
        assert set(slowdowns) == {"hydra"}
        assert "ALL(36)" in slowdowns["hydra"]

    def test_to_table(self):
        table = self._grid().to_table()
        assert "workload" in table
        assert "hydra" in table and "baseline" in table
        table_power = self._grid().to_table("dram_power_w")
        assert "3.3" in table_power
