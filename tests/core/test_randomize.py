"""Tests for the randomized row-to-group mapping (footnote 4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.security import verify_tracker
from repro.attacks import compile_program, resolve
from repro.attacks.programs import double_sided_program, single_sided_program
from repro.core.config import HydraConfig
from repro.core.hydra import HydraTracker
from repro.core.randomize import FeistelPermutation
from repro.dram.timing import DramGeometry

GEOMETRY = DramGeometry(
    channels=1,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)


class TestFeistelPermutation:
    @pytest.mark.parametrize("n", [2, 7, 100, 1024, 4096, 100_000])
    def test_is_a_bijection(self, n):
        perm = FeistelPermutation(n, key=42)
        sample = range(n) if n <= 4096 else range(0, n, 97)
        images = {perm.permute(v) for v in sample}
        assert len(images) == len(list(sample))
        assert all(0 <= image < n for image in images)

    def test_full_domain_bijection_odd_bits(self):
        """17-bit-style odd-width domains must still be bijective
        (cycle-walking over the widened even-bit domain)."""
        n = 1 << 7  # 7 bits -> widened to 8
        perm = FeistelPermutation(n, key=1)
        assert sorted(perm.permute(v) for v in range(n)) == list(range(n))

    def test_deterministic_per_key(self):
        a = FeistelPermutation(1024, key=5)
        b = FeistelPermutation(1024, key=5)
        assert [a.permute(i) for i in range(50)] == [
            b.permute(i) for i in range(50)
        ]

    def test_different_keys_differ(self):
        a = FeistelPermutation(4096, key=5)
        b = FeistelPermutation(4096, key=6)
        outputs_a = [a.permute(i) for i in range(256)]
        outputs_b = [b.permute(i) for i in range(256)]
        assert outputs_a != outputs_b

    def test_scrambles_group_neighbourhoods(self):
        """Consecutive rows must not stay in one 128-row group."""
        perm = FeistelPermutation(1 << 20, key=9)
        groups = {perm.permute(i) >> 7 for i in range(128)}
        assert len(groups) > 64

    def test_rekeyed(self):
        perm = FeistelPermutation(1024, key=5)
        fresh = perm.rekeyed(6)
        assert fresh.n_values == 1024
        assert fresh.key == 6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            FeistelPermutation(0, key=1)
        with pytest.raises(ValueError):
            FeistelPermutation(10, key=1).permute(10)

    @given(st.integers(min_value=1, max_value=10_000), st.integers())
    @settings(max_examples=50)
    def test_permute_stays_in_domain(self, n, key):
        perm = FeistelPermutation(n, key=key)
        assert 0 <= perm.permute(n - 1) < n
        assert 0 <= perm.permute(0) < n


class TestRandomizedHydra:
    def make(self, **overrides) -> HydraTracker:
        defaults = dict(
            geometry=GEOMETRY,
            trh=100,
            gct_entries=16,
            rcc_entries=8,
            rcc_ways=4,
            randomize_mapping=True,
        )
        defaults.update(overrides)
        return HydraTracker(HydraConfig(**defaults))

    def test_mitigation_names_physical_row(self):
        tracker = self.make()
        response = None
        for _ in range(tracker.th * 3):
            response = tracker.on_activation(5) or response
            if response and response.mitigate_rows:
                break
        assert response.mitigate_rows == (5,)

    def test_theorem1_still_holds(self):
        tracker = self.make()
        report = verify_tracker(
            tracker,
            GEOMETRY,
            compile_program(resolve(double_sided_program(500, 1500))),
            tracker.th,
        )
        assert report.secure

    def test_theorem1_across_rekeying(self):
        tracker = self.make()
        report = verify_tracker(
            tracker,
            GEOMETRY,
            compile_program(resolve(single_sided_program(5, 4000))),
            tracker.th,
            window_every=1200,
        )
        assert report.secure

    def test_rekey_changes_group_membership(self):
        tracker = self.make()
        before = tracker._permutation.permute(5)
        tracker.on_window_reset()
        after = tracker._permutation.permute(5)
        # Extremely likely to differ (1/2048 collision chance).
        assert before != after or tracker._permutation.key != 0

    def test_mitigation_rate_matches_static_design(self):
        """Paper: randomized design performs within ~0.1% of static —
        at tracker level, mitigation counts should match closely."""
        sequence = compile_program(
            resolve(double_sided_program(500, 2000))
        ).rows()
        static = HydraTracker(
            HydraConfig(
                geometry=GEOMETRY, trh=100, gct_entries=16,
                rcc_entries=8, rcc_ways=4,
            )
        )
        randomized = self.make()
        for row in sequence:
            static.on_activation(row)
            randomized.on_activation(row)
        assert randomized.stats.mitigations == pytest.approx(
            static.stats.mitigations, abs=2
        )
