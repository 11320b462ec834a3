"""Tests for the simulation runner and tracker factory."""

import pytest

from repro.core.hydra import HydraTracker
from repro.sim.config import SystemConfig
from repro.sim.simulator import make_tracker, simulate
from repro.trackers.cra import CraTracker
from repro.trackers.graphene import GrapheneTracker
from repro.interfaces import NullTracker
from repro.workloads.trace import Trace

CONFIG = SystemConfig(scale=1 / 128, n_windows=1)


class TestMakeTracker:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("baseline", NullTracker),
            ("hydra", HydraTracker),
            ("graphene", GrapheneTracker),
            ("cra", CraTracker),
        ],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_tracker(name, CONFIG), cls)

    def test_ablation_names(self):
        assert make_tracker("hydra-nogct", CONFIG).gct is None
        assert make_tracker("hydra-norcc", CONFIG).rcc is None

    def test_all_registered_names_construct(self):
        for name in ("ocpr", "para", "dcbf"):
            tracker = make_tracker(name, CONFIG)
            assert tracker.sram_bytes() >= 0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_tracker("nonsense", CONFIG)


class TestSimulate:
    def test_smoke_run(self):
        trace = Trace.from_rows([i % 100 for i in range(500)], gap_ns=20.0)
        result = simulate(trace, CONFIG, "hydra")
        assert result.tracker == "hydra"
        assert result.requests == 500
        assert result.end_time_ns > 0
        assert result.activations > 0
        assert "distribution" in result.extra

    def test_tracked_run_never_faster_than_baseline(self):
        trace = Trace.from_rows([i % 40 for i in range(2000)], gap_ns=5.0)
        base = simulate(trace, CONFIG, "baseline")
        cra = simulate(trace, CONFIG, "cra")
        assert cra.end_time_ns >= base.end_time_ns

    def test_explicit_tracker_instance(self):
        # A run is named by its spec; a prebuilt instance is refused.
        trace = Trace.from_rows([1, 2, 3], gap_ns=100.0)
        with pytest.raises(TypeError, match="tracker"):
            simulate(trace, CONFIG, tracker=make_tracker("ocpr", CONFIG))
        assert simulate(trace, CONFIG, "ocpr").tracker == "ocpr"

    def test_cra_reports_cache_miss_rate(self):
        trace = Trace.from_rows([i % 100 for i in range(300)], gap_ns=20.0)
        result = simulate(trace, CONFIG, "cra")
        assert 0.0 <= result.extra["cache_miss_rate"] <= 1.0

    def test_power_reported(self):
        trace = Trace.from_rows([1] * 100, gap_ns=100.0)
        result = simulate(trace, CONFIG, "baseline")
        assert result.dram_power_w > 0
