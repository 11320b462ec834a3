"""Tests for HydraConfig parameter derivation and validation."""

import pytest

from repro.core.config import HydraConfig
from repro.dram.timing import PAPER_GEOMETRY
from repro.sim.config import SystemConfig
from repro.trackers.registry import MIN_TRH


class TestDefaults:
    def test_paper_design_point(self):
        cfg = HydraConfig()
        assert cfg.trh == 500
        assert cfg.th == 250  # T_H = T_RH / 2 (§4.6)
        assert cfg.tg == 200  # 80% of T_H (§6.6)
        assert cfg.gct_entries == 32768
        assert cfg.rcc_entries == 8192

    def test_group_size_is_128_rows(self):
        """4M rows / 32K GCT entries = 128-row groups (§4.4)."""
        assert HydraConfig().group_size == 128

    def test_rcc_sets(self):
        assert HydraConfig().rcc_sets == 8192 // 16


class TestValidation:
    def test_rejects_tiny_trh(self):
        with pytest.raises(ValueError):
            HydraConfig(trh=2)

    def test_rejects_non_power_of_two_gct(self):
        with pytest.raises(ValueError):
            HydraConfig(gct_entries=30000)

    def test_rejects_rcc_not_divisible_by_ways(self):
        with pytest.raises(ValueError):
            HydraConfig(rcc_entries=100, rcc_ways=16)

    def test_rejects_bad_tg_fraction(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                HydraConfig(tg_fraction=bad)

    def test_rejects_gct_larger_than_rows(self):
        with pytest.raises(ValueError):
            HydraConfig(gct_entries=PAPER_GEOMETRY.total_rows * 2)

    def test_rejects_negative_blast_radius(self):
        with pytest.raises(ValueError):
            HydraConfig(blast_radius=-1)


class TestScaling:
    def test_scaled_preserves_group_size(self):
        cfg = HydraConfig().scaled(1 / 32)
        assert cfg.group_size == 128

    def test_scaled_preserves_thresholds(self):
        cfg = HydraConfig().scaled(1 / 32)
        assert cfg.th == 250
        assert cfg.tg == 200

    def test_scaled_preserves_rows_to_rcc_ratio(self):
        full = HydraConfig()
        scaled = full.scaled(1 / 32)
        full_ratio = full.geometry.total_rows / full.rcc_entries
        scaled_ratio = scaled.geometry.total_rows / scaled.rcc_entries
        assert scaled_ratio == pytest.approx(full_ratio, rel=0.1)

    def test_scale_one_is_identity(self):
        assert HydraConfig().scaled(1.0).gct_entries == 32768

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            HydraConfig().scaled(0.0)
        with pytest.raises(ValueError):
            HydraConfig().scaled(2.0)


class TestThresholdRetargeting:
    """T_RH is retargeted on the system (``SystemConfig.with_trh``),
    whose Hydra design point is ``hydra_config()``."""

    def test_figure7_scaling(self):
        """Figure 7: structures scale 2x at T_RH=250, 4x at 125."""
        cfg = SystemConfig().with_trh(250).hydra_config()
        assert cfg.trh == 250
        assert cfg.th == 125
        assert cfg.gct_entries == 65536
        assert cfg.rcc_entries == 16384
        assert SystemConfig().with_trh(125).hydra_config().gct_entries == 131072

    def test_gct_capped_at_row_count(self):
        cfg = SystemConfig().with_trh(MIN_TRH).hydra_config()
        assert cfg.gct_entries <= cfg.geometry.total_rows

    def test_rejects_zero_structure_scale(self):
        with pytest.raises(ValueError):
            SystemConfig(structure_scale=0)
