"""Registry-wide oracle sweep: every tracker meets its security claim.

Drives every tracker in the registry (the same list ``hydra-sim
list-trackers`` prints) through the §5 :class:`SecurityHarness` on
random and single-row-hammer sequences at T_RH in {1000, 500}, and
checks the outcome against the tracker's declared security class:

- ``deterministic`` trackers must report **zero** violations on every
  sequence — that is the claim the class makes;
- ``insecure`` negative controls must be caught violating somewhere
  in the battery (an oracle that can't catch ProTRR-interval or
  MRLoc-queue breakage isn't testing anything);
- ``probabilistic`` and ``rate-control`` trackers are exempt from the
  zero-violation bar (sampling designs may lose at low thresholds;
  delay-based designs aren't modeled by an activation-count oracle)
  but must still run cleanly and produce a well-formed report.

A new tracker registration gets all of this for free — which is the
point: the arena's verdict table rests on these semantics.
"""

import random

import pytest

from repro.analysis.security import verify_tracker
from repro.attacks import AttackContext, compile_attack
from repro.sim.config import SystemConfig
from repro.trackers.registry import (
    available_trackers,
    build_tracker,
    tracker_info,
)

TRH_RUNGS = (1000, 500)
CONFIG = SystemConfig(scale=1 / 128, n_windows=1)


def _single_sided(cfg: SystemConfig):
    """Row 5 hammered 2.5*T_H + 8 times (the registry default)."""
    return compile_attack("single_sided", AttackContext.from_system(cfg))


def _sequences(cfg: SystemConfig):
    threshold = cfg.trh // 2
    rng = random.Random(0xC0FFEE + cfg.trh)
    span = min(2048, cfg.geometry.total_rows)
    return {
        "single": _single_sided(cfg),
        "random": [rng.randrange(span) for _ in range(4 * threshold)],
    }


def _battery(name: str):
    """All (sequence, report) outcomes for one tracker across rungs."""
    outcomes = {}
    for trh in TRH_RUNGS:
        cfg = CONFIG.with_trh(trh)
        act_max = cfg.timing.max_activations_per_window()
        for seq_name, sequence in _sequences(cfg).items():
            tracker = build_tracker(name, cfg)
            outcomes[(trh, seq_name)] = verify_tracker(
                tracker,
                cfg.geometry,
                sequence,
                threshold=trh // 2,
                window_every=act_max,
                max_feedback_depth=2,
            )
    return outcomes


@pytest.mark.parametrize("name", available_trackers())
def test_tracker_meets_its_security_claim(name):
    info = tracker_info(name)
    outcomes = _battery(name)
    assert set(outcomes) == {
        (trh, seq) for trh in TRH_RUNGS for seq in ("single", "random")
    }
    total_violations = sum(len(r.violations) for r in outcomes.values())
    if info.security_class == "deterministic":
        for (trh, seq), report in outcomes.items():
            assert report.secure, (
                f"{name} (claims deterministic) violated on {seq} at"
                f" T_RH={trh}: {report.violations[:3]}"
            )
    elif info.security_class == "insecure":
        assert total_violations > 0, (
            f"{name} is registered as an insecure negative control but"
            " the oracle battery caught nothing — the battery lost its"
            " teeth or the tracker is misclassified"
        )
    else:
        # probabilistic / rate-control: no zero-violation bar, but the
        # harness must have actually exercised the tracker.
        for report in outcomes.values():
            assert report.activations > 0
            assert report.max_unmitigated_count >= 0


@pytest.mark.parametrize("name", available_trackers())
def test_single_sided_always_pressures_the_oracle(name):
    """Sanity on the battery itself: the single-row hammer must push
    some row's unmitigated count near the threshold for every tracker
    that doesn't mitigate early (and the report must say so)."""
    trh = 1000
    cfg = CONFIG.with_trh(trh)
    tracker = build_tracker(name, cfg)
    report = verify_tracker(
        tracker,
        cfg.geometry,
        _single_sided(cfg),
        threshold=trh // 2,
        window_every=cfg.timing.max_activations_per_window(),
        max_feedback_depth=2,
    )
    assert report.activations >= trh // 2
    assert report.max_unmitigated_count > 0
