"""Tests for the oracle cell both security harnesses judge with, and
the refresh alignment the fuzzer applies before judging."""

from repro.analysis.verdicts import (
    VERDICT_BREAKS_EXPECTED,
    VERDICT_NOT_EXERCISED,
    VERDICT_SECURE,
)
from repro.attacks.compile import EVENT_SYNC, compile_program
from repro.attacks.fuzz import _align_to_refresh
from repro.attacks.ops import SyncRefresh
from repro.attacks.parse import parse_program
from repro.attacks.pipeline import judge_attack
from repro.attacks.registry import AttackContext, compile_attack
from repro.attacks.resolve import resolve
from repro.sim.config import SystemConfig

CFG = SystemConfig(scale=1 / 256).with_trh(1000)
CTX = AttackContext.from_system(CFG)


class TestAlignToRefresh:
    def test_prepends_sync(self):
        attack = compile_attack("single_sided@hammers=10", CTX)
        assert attack.syncs == 0
        aligned = compile_program(_align_to_refresh(attack.program))
        assert aligned.syncs == 1
        assert next(iter(aligned.iter_events()))[0] == EVENT_SYNC
        assert aligned.activations == 10

    def test_idempotent_when_already_aligned(self):
        program = resolve(parse_program("sync_refresh\nact row=5\npre\n"))
        assert isinstance(program.ops[0], SyncRefresh)
        assert _align_to_refresh(program) is program


class TestHammerAndVerify:
    def test_baseline_breaks_as_expected(self):
        attack = compile_attack("single_sided", CTX)
        judged = judge_attack(attack, CFG, "baseline")
        assert judged.security_class == "insecure"
        assert judged.exercised is True
        assert judged.report.violations
        assert judged.verdict == VERDICT_BREAKS_EXPECTED

    def test_graphene_survives(self):
        attack = compile_attack("single_sided", CTX)
        judged = judge_attack(attack, CFG, "graphene")
        assert judged.security_class == "deterministic"
        assert judged.verdict == VERDICT_SECURE
        assert not judged.report.violations

    def test_unexercised_attack_judged_vacuous(self):
        attack = compile_attack("single_sided@hammers=3", CTX)
        judged = judge_attack(attack, CFG, "graphene")
        assert judged.exercised is False
        assert judged.verdict == VERDICT_NOT_EXERCISED

    def test_oracle_bound_is_half_the_threshold(self):
        attack = compile_attack("single_sided", CTX)
        judged = judge_attack(attack, CFG, "baseline")
        assert judged.report.threshold == CFG.trh // 2
        # The baseline never mitigates: the oracle stops at its cap.
        assert len(judged.report.violations) == 16

    def test_tracker_context_scales_structures(self):
        """The judge builds trackers from the rung's tracker context,
        whose structures scale as Figure 7's do."""
        tctx = SystemConfig(scale=1 / 256).with_trh(125).tracker_context()
        assert tctx.trh == 125
        assert tctx.structure_scale == 4  # 500 // 125
