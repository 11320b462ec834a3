"""The oracle cell: one compiled attack against one tracker → a verdict.

:func:`judge_attack` is the one function both security harnesses call
per cell — the arena's oracle battery
(:mod:`repro.analysis.arena`) and the attack fuzzer
(:mod:`repro.attacks.fuzz`). It builds the tracker for the system's
config, drives it with the attack under the §5 security
oracle (:func:`~repro.analysis.security.verify_tracker`), records
whether the attack could exercise the T_RH/2 threshold at all, and
judges the report against the tracker's declared security class (the
shared :mod:`~repro.analysis.verdicts` judge).

Callers shape the attack before judging it: the fuzzer prepends a
``sync_refresh`` so each generated program starts flush with a fresh
tracking window; the arena's battery runs as built.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.analysis.security import SecurityReport, verify_tracker
from repro.analysis.verdicts import judge_verdict
from repro.attacks.compile import CompiledAttack, exercised_within
from repro.sim.config import SystemConfig
from repro.trackers.registry import build_tracker, parse_spec, tracker_info

__all__ = ["Judgement", "judge_attack"]


class Judgement(NamedTuple):
    """One judged (tracker, attack) cell."""

    report: SecurityReport
    #: Whether the attack could drive some row past the threshold
    #: within one window — a "secure" verdict on an unexercised attack
    #: is vacuous, and is reported as such.
    exercised: bool
    security_class: str
    verdict: str


def judge_attack(
    compiled: CompiledAttack, cfg: SystemConfig, spec: str
) -> Judgement:
    """Judge tracker ``spec`` (built for ``cfg``) under ``compiled``.

    The oracle bound is T_RH/2 and the window resets every ACT_max
    demand activations: a window cannot hold more, and trackers whose
    soundness leans on that bound (TWiCe's pruning) are entitled to it.
    §5.2.1 victim-refresh feedback is on, to depth 2 — enough to keep
    feedback pressure on every tracker while bounding cascade
    amplification on mitigation-happy designs.
    """
    threshold = max(1, cfg.trh // 2)
    act_max = cfg.timing.max_activations_per_window()
    report = verify_tracker(
        build_tracker(spec, cfg),
        cfg.geometry,
        compiled,
        threshold=threshold,
        window_every=act_max,
        blast_radius=2,
        feed_mitigation_activations=True,
        max_violations=16,
        max_feedback_depth=2,
    )
    exercised = exercised_within(compiled, threshold, act_max)
    security_class = tracker_info(parse_spec(spec).name).security_class
    verdict = judge_verdict(
        security_class, len(report.violations), exercised
    )
    return Judgement(report, exercised, security_class, verdict)
