"""Tests for result records and aggregation."""

import copy
import dataclasses
import json

import pytest

from repro.sim import SystemConfig, simulate_workload
from repro.sim.results import (
    PAYLOAD_FIELDS,
    Comparison,
    RunResult,
    geometric_mean,
)

CONFIG = SystemConfig(scale=1 / 256, n_windows=1)


class TestComparison:
    def test_normalized_performance(self):
        comp = Comparison("w", "t", baseline_ns=100.0, tracked_ns=125.0)
        assert comp.normalized_performance == pytest.approx(0.8)
        assert comp.slowdown_percent == pytest.approx(25.0)

    def test_no_slowdown(self):
        comp = Comparison("w", "t", baseline_ns=100.0, tracked_ns=100.0)
        assert comp.normalized_performance == 1.0
        assert comp.slowdown_percent == 0.0

    def test_degenerate_inputs(self):
        assert Comparison("w", "t", 0.0, 10.0).slowdown_percent == 0.0
        assert Comparison("w", "t", 10.0, 0.0).normalized_performance == 1.0


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_identity(self):
        assert geometric_mean([0.9, 0.9, 0.9]) == pytest.approx(0.9)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestRunResultSerialization:
    def test_roundtrip(self):
        result = RunResult(
            workload="xz",
            tracker="hydra",
            end_time_ns=1.0,
            requests=10,
            average_latency_ns=50.0,
            demand_line_transfers=20,
            meta_accesses=3,
            meta_line_transfers=3,
            victim_refreshes=4,
            mitigations=1,
            window_resets=2,
            activations=10,
            bus_utilization=0.5,
            dram_power_w=3.3,
            extra={"distribution": {"gct_only": 1.0}},
        )
        restored = RunResult.from_dict(result.to_dict())
        assert restored == result


def _deep_copy_every_field(result):
    """The payload as ``to_dict`` once built it: every field deep-copied."""
    return {
        spec.name: copy.deepcopy(getattr(result, spec.name))
        for spec in dataclasses.fields(result)
        if spec.name != "observability"
    }


@pytest.fixture(scope="module")
def cells():
    """A Hydra cell (nested ``distribution``) and a queued cell
    (scheduler counters in ``extra``)."""
    return {
        "hydra": simulate_workload(CONFIG, "hydra", "xz"),
        "queued": simulate_workload(
            CONFIG.with_engine("queued"), "hydra", "xz"
        ),
    }


class TestPayloadRoundTrip:
    @pytest.mark.parametrize("cell", ["hydra", "queued"])
    def test_to_dict_matches_deep_copy_of_every_field(self, cells, cell):
        result = cells[cell]
        payload = result.to_dict()
        old = _deep_copy_every_field(result)
        assert payload == old
        # Same keys in the same order: cached bytes are unchanged.
        assert json.dumps(payload) == json.dumps(old)
        assert tuple(payload) == PAYLOAD_FIELDS

    def test_mutating_the_payload_extra_leaves_the_result(self, cells):
        result = cells["hydra"]
        before = _deep_copy_every_field(result)
        payload = result.to_dict()
        payload["extra"]["distribution"]["gct_only"] = -1.0
        payload["extra"]["added"] = 1
        payload["end_time_ns"] = -1.0
        assert _deep_copy_every_field(result) == before
        assert result.hydra_distribution["gct_only"] != -1.0
