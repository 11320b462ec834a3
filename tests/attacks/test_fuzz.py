"""Tests for the seeded attack-program fuzzer."""

import pytest

from repro.attacks.compile import compile_program
from repro.attacks.fuzz import (
    FuzzReport,
    generate_program,
    run_fuzz,
)
from repro.attacks.registry import AttackContext
from repro.attacks.resolve import resolve
from repro.obs.manifest import read_records
from repro.sim.config import SystemConfig

CONFIG = SystemConfig(scale=1 / 128, n_windows=1)
CTX = AttackContext.from_system(CONFIG)


class TestGenerateProgram:
    def test_same_seed_same_program(self):
        assert generate_program(7, CTX) == generate_program(7, CTX)

    def test_different_seeds_differ(self):
        corpus = {generate_program(s, CTX).render() for s in range(12)}
        assert len(corpus) > 1

    def test_programs_resolve_within_geometry(self):
        for seed in range(16):
            program = generate_program(seed, CTX)
            compiled = compile_program(
                resolve(program, geometry=CTX.geometry)
            )
            assert compiled.activations > 0
            assert all(
                0 <= r < CTX.geometry.total_rows
                for r in compiled.iter_rows()
            )

    def test_high_rung_generation_does_not_crash(self):
        ctx = CTX.with_trh(139_000)
        for seed in range(8):
            program = generate_program(seed, ctx)
            assert compile_program(resolve(program)).activations > 0

    def test_budget_bounds_activations(self):
        for seed in range(8):
            program = generate_program(seed, CTX, act_budget=500)
            compiled = compile_program(resolve(program))
            # Budget is per-phase after the threshold clamp; the total
            # can exceed one budget slightly (decoy tails) but stays
            # within the same order of magnitude.
            assert compiled.activations < 8 * (6 * CTX.threshold + 64)


class TestRunFuzz:
    def test_deterministic_and_quiet_on_secure_trackers(self, tmp_path):
        manifest = tmp_path / "fuzz.jsonl"
        kwargs = dict(
            trackers=["graphene", "baseline"],
            programs=3,
            corpus_seed=99,
            jobs=0,
            manifest_path=manifest,
        )
        report = run_fuzz(CONFIG, **kwargs)
        assert isinstance(report, FuzzReport)
        assert len(report.outcomes) == 6
        # Graphene is deterministic-secure: nothing flagged.
        assert not [o for o in report.flagged if o.spec == "graphene"]
        # Determinism: a second campaign reproduces the first.
        manifest2 = tmp_path / "fuzz2.jsonl"
        kwargs["manifest_path"] = manifest2
        report2 = run_fuzz(CONFIG, **kwargs)
        assert [o.to_dict() for o in report.outcomes] == [
            o.to_dict() for o in report2.outcomes
        ]

    def test_manifest_round_trips(self, tmp_path):
        manifest = tmp_path / "fuzz.jsonl"
        report = run_fuzz(
            CONFIG,
            trackers=["graphene"],
            programs=2,
            corpus_seed=5,
            jobs=0,
            manifest_path=manifest,
        )
        records, skipped = read_records(manifest, kind="fuzz-oracle")
        assert skipped == 0
        assert len(records) == 2
        for record, outcome in zip(records, report.outcomes):
            assert record.kind == "fuzz-oracle"
            assert record.spec == outcome.spec
            assert record.program_seed == outcome.program_seed
            assert record.verdict == outcome.verdict

    def test_verdict_counts_partition_outcomes(self, tmp_path):
        report = run_fuzz(
            CONFIG,
            trackers=["baseline"],
            programs=2,
            corpus_seed=5,
            jobs=0,
            manifest_path=tmp_path / "m.jsonl",
        )
        counts = report.verdict_counts()
        assert sum(counts["baseline"].values()) == 2

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError, match="programs"):
            run_fuzz(CONFIG, programs=0)

    def test_report_to_dict_shape(self, tmp_path):
        report = run_fuzz(
            CONFIG,
            trackers=["graphene"],
            programs=1,
            corpus_seed=3,
            jobs=0,
            manifest_path=tmp_path / "m.jsonl",
        )
        payload = report.to_dict()
        assert payload["trackers"] == ["graphene"]
        assert payload["programs"] == 1
        assert len(payload["outcomes"]) == 1
        assert "verdicts" in payload
