"""Cross-module integration tests: full trace -> core -> DRAM paths."""

import pytest

from repro.analysis.security import verify_tracker
from repro.attacks import compile_program, resolve
from repro.attacks.programs import (
    double_sided_program,
    half_double_program,
    single_sided_program,
)
from repro.core.hydra import HydraTracker
from repro.sim.config import SystemConfig
from repro.sim.simulator import simulate
from repro.sim.sweep import ExperimentRunner
from repro.workloads.trace import Trace

CONFIG = SystemConfig(scale=1 / 128, n_windows=1)


class TestWorkloadPipeline:
    """Generator -> simulator -> results, on one real workload."""

    @pytest.fixture(scope="class")
    def runner(self, tmp_path_factory):
        return ExperimentRunner(
            CONFIG, cache_dir=tmp_path_factory.mktemp("cache")
        )

    def test_hydra_close_to_baseline(self, runner):
        comp = runner.compare("hydra", ["xz"])[0]
        assert comp.slowdown_percent < 10.0

    def test_cra_slower_than_hydra(self, runner):
        hydra = runner.compare("hydra", ["xz"])[0]
        cra = runner.compare("cra", ["xz"])[0]
        assert cra.slowdown_percent > hydra.slowdown_percent

    def test_hydra_distribution_dominated_by_gct(self, runner):
        result = runner.run("hydra", "xz")
        dist = result.extra["distribution"]
        assert dist["gct_only"] > 0.5
        assert dist["rct_access"] < 0.1

    def test_mitigations_fire_on_hot_workload(self, runner):
        """xz has many 250+-ACT rows: mitigation activity expected."""
        result = runner.run("hydra", "xz")
        assert result.mitigations > 0
        assert result.victim_refreshes >= result.mitigations


class TestAttackThroughFullSystem:
    """Attack trace through the timing simulator (not just the
    functional harness): mitigations must still fire."""

    def test_single_sided_hammering_needs_alternation(self):
        """Back-to-back accesses to one row are row-buffer hits — a
        single activation, no hammering. The timing model captures
        this physical fact."""
        sequence = compile_program(resolve(single_sided_program(5, 4000))).rows()
        trace = Trace.from_rows(sequence, gap_ns=50.0)
        result = simulate(trace, CONFIG, "hydra")
        assert result.activations < 10
        assert result.mitigations == 0

    def test_double_sided_attack_mitigated_in_timing_sim(self):
        """Alternating aggressors force an ACT per access — the real
        hammering pattern — and must draw mitigations."""
        sequence = compile_program(resolve(double_sided_program(500, 2000))).rows()
        trace = Trace.from_rows(sequence, gap_ns=50.0)
        tracker = HydraTracker(CONFIG.hydra_config())
        result = simulate(trace, CONFIG, tracker=tracker)
        # ~2000 activations per aggressor at T_H = 250.
        assert result.mitigations >= 10

    def test_half_double_attack_mitigated(self):
        sequence = compile_program(resolve(half_double_program(500, 4000))).rows()
        trace = Trace.from_rows(sequence, gap_ns=50.0)
        tracker = HydraTracker(CONFIG.hydra_config())
        result = simulate(trace, CONFIG, tracker=tracker)
        assert result.mitigations > 0


class TestFunctionalVsTimingConsistency:
    def test_same_mitigation_count_both_paths(self):
        """The functional harness and the timing simulator agree on
        Hydra's mitigation count for the same activation sequence
        (with mitigation feedback disabled to align semantics —
        feedback rows differ only via blast-radius bookkeeping). The
        sequence alternates two distant aggressors so that every
        access is a true activation in the timing model too."""
        sequence = compile_program(resolve(double_sided_program(500, 1500))).rows()
        functional = HydraTracker(CONFIG.hydra_config())
        report = verify_tracker(
            functional,
            CONFIG.geometry,
            sequence,
            CONFIG.hydra_config().th,
        )
        assert report.secure

        timing_tracker = HydraTracker(CONFIG.hydra_config())
        trace = Trace.from_rows(sequence, gap_ns=50.0)
        result = simulate(trace, CONFIG, tracker=timing_tracker)
        assert result.mitigations == pytest.approx(
            report.mitigations, rel=0.2
        )


class TestEveryTrackerEndToEnd:
    @pytest.mark.parametrize(
        "name",
        ["baseline", "hydra", "hydra-nogct", "hydra-norcc",
         "graphene", "cra", "ocpr", "para", "dcbf"],
    )
    def test_runs_clean(self, name):
        trace = Trace.from_rows(
            [i % 200 for i in range(1500)], gap_ns=20.0
        )
        result = simulate(trace, CONFIG, name)
        assert result.end_time_ns > 0
        assert result.requests == 1500
