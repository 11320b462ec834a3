"""Tests for the tracker arena (slowdown/storage/security Pareto)."""

import json

import pytest

from repro.analysis.arena import (
    DEFAULT_TRH_LADDER,
    ORACLE_SEQUENCES,
    ArenaCell,
    OracleOutcome,
    _cell_attack,
    mark_pareto,
    run_arena,
)
from repro.analysis.report import render_arena
from repro.attacks.compile import exercised_within
from repro.attacks.programs import DEFAULT_MANY_AGGRESSORS
from repro.attacks.resolve import AttackBoundsError
from repro.obs.manifest import read_records
from repro.sim.config import SystemConfig

ACT_MAX = 100_000


def outcome(**overrides) -> OracleOutcome:
    base = dict(
        sequence="single",
        secure=True,
        exercised=True,
        violations=0,
        max_unmitigated=10,
        mitigations=1,
        activations=100,
    )
    base.update(overrides)
    return OracleOutcome(**base)


def cell(**overrides) -> ArenaCell:
    base = dict(
        spec="graphene",
        trh=1000,
        security_class="deterministic",
        slowdown_percent=1.0,
        sram_bytes=1024,
        llc_reserved_bytes=0,
        dram_reserved_bytes=0,
        oracle=(outcome(),),
    )
    base.update(overrides)
    return ArenaCell(**base)


def battery(name, trh, scale=1 / 256):
    """The arena's compiled attack for one battery alias at one rung."""
    cfg = SystemConfig(scale=scale).with_trh(trh)
    compiled, label = _cell_attack(cfg, name)
    assert label == name
    return compiled.rows(), cfg


def exercised(rows, trh, act_max=ACT_MAX):
    return exercised_within(rows, max(1, trh // 2), act_max)


class TestOracleSequences:
    def test_single_crosses_threshold_twice(self):
        rows, _ = battery("single", 1000)
        assert exercised(rows, 1000)
        assert rows == [5] * len(rows)
        assert len(rows) > 2 * 500

    def test_single_unexercised_when_window_too_small(self):
        """A scaled window smaller than T_H cannot host the attack."""
        rows, _ = battery("single", 139_000)
        assert not exercised(rows, 139_000, act_max=10_000)

    def test_many_overflows_small_queues(self):
        rows, _ = battery("many", 1000)
        assert exercised(rows, 1000)
        assert len(set(rows)) == DEFAULT_MANY_AGGRESSORS > 16

    def test_many_shrinks_to_sanity_size_when_capped(self):
        """Once the cap makes the threshold unreachable, the sequence
        shrinks instead of burning the full budget on a vacuous run."""
        rows, _ = battery("many", 139_000)
        assert not exercised(rows, 139_000)
        assert len(rows) <= DEFAULT_MANY_AGGRESSORS * 2048

    def test_random_is_sanity_only(self):
        rows, cfg = battery("random", 1000, scale=1 / 4096)
        assert not exercised(rows, 1000)
        assert all(0 <= row < cfg.geometry.total_rows for row in rows)

    def test_random_is_deterministic(self):
        assert battery("random", 1000)[0] == battery("random", 1000)[0]

    def test_aliases_skip_bounds_specs_check_them(self):
        """Battery rows are fixed even where the row space is smaller;
        a spec compiles against the rung's geometry and is checked."""
        tiny = SystemConfig(scale=1 / 65536).with_trh(1000)
        rows, _ = battery("many", 1000, scale=1 / 65536)
        assert max(rows) >= tiny.geometry.total_rows
        with pytest.raises(AttackBoundsError):
            _cell_attack(tiny, "many_sided")

    def test_spec_label_is_canonical(self):
        cfg = SystemConfig(scale=1 / 256).with_trh(1000)
        _, label = _cell_attack(cfg, "half_double@near_ratio=500, victim=40")
        assert label == "half_double@near_ratio=500,victim=40"

    def test_unknown_sequence_rejected(self):
        with pytest.raises(ValueError):
            battery("half-pipe", 1000)


class TestVerdicts:
    def test_deterministic_clean_is_secure(self):
        assert cell().verdict == "secure"

    def test_deterministic_violation_is_flagged(self):
        bad = cell(oracle=(outcome(secure=False, violations=2),))
        assert bad.verdict == "INSECURE"
        assert not bad.oracle_eligible

    def test_probabilistic_violations_are_by_design(self):
        probabilistic = cell(
            security_class="probabilistic",
            oracle=(outcome(secure=False, violations=1),),
        )
        assert probabilistic.verdict == "violations (by design)"

    def test_rate_control_is_never_judged(self):
        rate = cell(
            security_class="rate-control",
            oracle=(outcome(secure=False, violations=16),),
        )
        assert rate.verdict == "n/a"

    def test_insecure_breaking_is_expected(self):
        control = cell(
            security_class="insecure",
            oracle=(outcome(secure=False, violations=16),),
        )
        assert control.verdict == "breaks (expected)"
        assert not control.oracle_eligible

    def test_unexercised_cells_are_honest(self):
        vacuous = cell(oracle=(outcome(exercised=False),))
        assert vacuous.verdict == "not exercised"

    def test_storage_axis_includes_llc_not_dram(self):
        c = cell(sram_bytes=100, llc_reserved_bytes=50, dram_reserved_bytes=900)
        assert c.storage_bytes == 150


class TestPareto:
    def test_dominated_cells_excluded(self):
        cheap_fast = cell(spec="a", slowdown_percent=1.0, sram_bytes=100)
        dominated = cell(spec="b", slowdown_percent=2.0, sram_bytes=200)
        tradeoff = cell(spec="c", slowdown_percent=0.5, sram_bytes=5000)
        cells = [cheap_fast, dominated, tradeoff]
        mark_pareto(cells)
        assert [c.spec for c in cells if c.pareto] == ["a", "c"]

    def test_insecure_and_violating_cells_excluded(self):
        control = cell(
            spec="ctl",
            security_class="insecure",
            slowdown_percent=0.0,
            sram_bytes=0,
        )
        violator = cell(
            spec="bad",
            slowdown_percent=0.0,
            sram_bytes=0,
            oracle=(outcome(secure=False, violations=1),),
        )
        honest = cell(spec="ok", slowdown_percent=3.0, sram_bytes=4096)
        cells = [control, violator, honest]
        mark_pareto(cells)
        assert [c.spec for c in cells if c.pareto] == ["ok"]

    def test_identical_points_co_own_the_frontier(self):
        twin_a = cell(spec="a", slowdown_percent=1.0, sram_bytes=100)
        twin_b = cell(spec="b", slowdown_percent=1.0, sram_bytes=100)
        cells = [twin_a, twin_b]
        mark_pareto(cells)
        assert twin_a.pareto and twin_b.pareto


class TestRunArena:
    """End-to-end on a deliberately tiny grid (one rung, one workload)."""

    @pytest.fixture(scope="class")
    def arena(self, tmp_path_factory):
        manifest = tmp_path_factory.mktemp("arena") / "manifest.jsonl"
        config = SystemConfig(scale=1 / 128, n_windows=1)
        report = run_arena(
            config,
            trackers=("baseline", "graphene", "comet", "prohit"),
            trh_ladder=(1000,),
            workloads=("GUPS",),
            jobs=1,
            manifest_path=manifest,
            progress=False,
        )
        return report, manifest

    def test_every_tracker_gets_a_cell(self, arena):
        report, _ = arena
        assert sorted(c.spec for c in report.rung(1000)) == [
            "baseline",
            "comet",
            "graphene",
            "prohit",
        ]

    def test_baseline_anchors_slowdown_at_zero(self, arena):
        report, _ = arena
        assert report.cell("baseline", 1000).slowdown_percent == 0.0

    def test_deterministic_trackers_pass_the_oracle(self, arena):
        report, _ = arena
        for spec in ("graphene", "comet"):
            assert report.cell(spec, 1000).verdict == "secure"

    def test_negative_control_breaks(self, arena):
        report, _ = arena
        assert report.cell("prohit", 1000).verdict == "breaks (expected)"

    def test_frontier_is_oracle_clean(self, arena):
        report, _ = arena
        frontier = report.pareto_frontier(1000)
        assert frontier
        assert all(c.oracle_eligible for c in frontier)

    def test_every_sequence_ran_per_cell(self, arena):
        report, _ = arena
        for c in report.cells:
            assert tuple(o.sequence for o in c.oracle) == ORACLE_SEQUENCES

    def test_manifest_carries_both_streams(self, arena):
        report, manifest = arena
        cells, cell_skipped = read_records(manifest)
        oracle, oracle_skipped = read_records(manifest, kind="arena-oracle")
        assert cell_skipped == oracle_skipped == 0
        assert len(cells) == 4  # 4 trackers x 1 workload x 1 rung
        assert len(oracle) == 4 * len(ORACLE_SEQUENCES)
        by_spec = {r.spec for r in oracle}
        assert by_spec == {"baseline", "graphene", "comet", "prohit"}

    def test_report_serializes(self, arena):
        report, _ = arena
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["trh_ladder"] == [1000]
        assert payload["pareto"]["1000"]
        assert len(payload["cells"]) == 4
        first = payload["cells"][0]
        for key in ("spec", "verdict", "storage_bytes", "oracle", "pareto"):
            assert key in first

    def test_render_arena_mentions_every_tracker(self, arena):
        report, _ = arena
        text = render_arena(report)
        assert "## T_RH = 1000" in text
        for spec in ("baseline", "graphene", "comet", "prohit"):
            assert spec in text
        assert "Pareto frontier:" in text

    def test_unknown_cell_lookup_raises(self, arena):
        report, _ = arena
        with pytest.raises(KeyError):
            report.cell("graphene", 4800)

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            run_arena(SystemConfig(scale=1 / 128), trh_ladder=())

    def test_default_ladder_spans_the_paper_range(self):
        assert DEFAULT_TRH_LADDER[0] == 139_000
        assert DEFAULT_TRH_LADDER[-1] == 500


class TestExperimentRegistration:
    def test_arena_is_a_named_experiment(self):
        from repro.sim.experiments import available_experiments

        assert "arena" in available_experiments()
