"""Cross-cutting property-based tests (hypothesis).

These pin down system-level invariants that unit tests state only
pointwise: timing monotonicity, conservation of tracked activations,
security of every *guaranteed* tracker on arbitrary inputs, and
equivalence of the static and randomized Hydra mappings.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.security import verify_tracker
from repro.core.config import HydraConfig
from repro.core.hydra import HydraTracker
from repro.dram.timing import DramGeometry, DramTiming
from repro.memctrl.controller import MemoryController
from repro.trackers.cat import CatTracker
from repro.trackers.graphene import GrapheneTracker
from repro.trackers.ocpr import OcprTracker
from repro.trackers.twice import TwiceTracker
from tests.memctrl.test_controller import access

GEOMETRY = DramGeometry(
    channels=2,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)
TIMING = DramTiming().scaled(1 / 64)
TRH = 100
TH = TRH // 2

row_sequences = st.lists(
    st.integers(min_value=0, max_value=500), min_size=1, max_size=1500
)


def hydra_config(**overrides) -> HydraConfig:
    defaults = dict(
        geometry=GEOMETRY, trh=TRH, gct_entries=16,
        rcc_entries=8, rcc_ways=4,
    )
    defaults.update(overrides)
    return HydraConfig(**defaults)


class TestTimingMonotonicity:
    @given(row_sequences)
    @settings(max_examples=30, deadline=None)
    def test_completions_never_precede_requests(self, rows):
        mc = MemoryController(GEOMETRY, TIMING)
        t = 0.0
        for row in rows:
            done = access(mc, t, row)
            assert done > t
            t = done

    @given(row_sequences)
    @settings(max_examples=20, deadline=None)
    def test_activation_conservation(self, rows):
        """Bank ACT counts equal tracker-visible demand activations
        when the tracker is silent (no meta, no mitigation)."""
        mc = MemoryController(GEOMETRY, TIMING)
        t = 0.0
        for row in rows:
            t = access(mc, t, row)
        acts = mc.activity().activations
        # One ACT per row-buffer miss, none for hits.
        assert acts == mc.activity().row_buffer_misses
        assert acts <= len(rows)


class TestUniversalSecurityProperty:
    """Every *guaranteed* tracker must satisfy Theorem-1 on arbitrary
    activation sequences over a hot region."""

    def _check(self, tracker, rows):
        report = verify_tracker(tracker, GEOMETRY, rows, TH)
        assert report.secure, report.violations[:2]

    @given(row_sequences)
    @settings(max_examples=20, deadline=None)
    def test_hydra(self, rows):
        self._check(HydraTracker(hydra_config()), rows)

    @given(row_sequences)
    @settings(max_examples=15, deadline=None)
    def test_hydra_randomized(self, rows):
        self._check(
            HydraTracker(hydra_config(randomize_mapping=True)), rows
        )

    @given(row_sequences)
    @settings(max_examples=15, deadline=None)
    def test_graphene(self, rows):
        tracker = GrapheneTracker(GEOMETRY, trh=TRH, entries_per_bank=64)
        self._check(tracker, rows)

    @given(row_sequences)
    @settings(max_examples=15, deadline=None)
    def test_ocpr(self, rows):
        self._check(OcprTracker(GEOMETRY, trh=TRH), rows)

    @given(row_sequences)
    @settings(max_examples=10, deadline=None)
    def test_cat(self, rows):
        tracker = CatTracker(GEOMETRY, trh=TRH, counters_per_bank=128)
        self._check(tracker, rows)

    @given(row_sequences)
    @settings(max_examples=10, deadline=None)
    def test_twice(self, rows):
        tracker = TwiceTracker(
            GEOMETRY, trh=TRH, timing=TIMING, entries_per_bank=128
        )
        self._check(tracker, rows)


class TestRandomizedEquivalence:
    @given(row_sequences)
    @settings(max_examples=15, deadline=None)
    def test_static_and_randomized_agree_on_hammering(self, rows):
        """Mitigation totals under the two mappings stay close: the
        permutation changes *which* rows share groups, not per-row
        arithmetic; differences come only from group-conflict luck."""
        static = HydraTracker(hydra_config())
        randomized = HydraTracker(hydra_config(randomize_mapping=True))
        for row in rows:
            static.on_activation(row)
            randomized.on_activation(row)
        assert randomized.stats.mitigations <= static.stats.mitigations + 5
        assert static.stats.mitigations <= randomized.stats.mitigations + 5

    @given(row_sequences)
    @settings(max_examples=15, deadline=None)
    def test_distribution_always_sums_to_one(self, rows):
        tracker = HydraTracker(hydra_config())
        for row in rows:
            tracker.on_activation(row)
        dist = tracker.stats.distribution()
        assert sum(dist.values()) == pytest.approx(1.0)
