"""Tests for Hydra's Table 4 storage accounting."""

import pytest

from repro.core.config import HydraConfig
from repro.core.storage import hydra_storage
from repro.sim.config import SystemConfig


class TestTable4:
    def test_paper_breakdown_exact(self):
        """Table 4: GCT 32 KB + RCC 24 KB + RIT-ACT 0.5 KB = 56.5 KB."""
        report = hydra_storage(HydraConfig())
        assert report.gct_bytes == 32 * 1024
        assert report.rcc_bytes == 24 * 1024
        assert report.rit_act_bytes == 512
        assert report.sram_total_kib == pytest.approx(56.5)

    def test_dram_reservation_is_4mb(self):
        report = hydra_storage(HydraConfig())
        assert report.dram_reserved_bytes == 4 * 1024 * 1024

    def test_ablations_drop_structures(self):
        nogct = hydra_storage(HydraConfig(enable_gct=False))
        assert nogct.gct_bytes == 0
        norcc = hydra_storage(HydraConfig(enable_rcc=False))
        assert norcc.rcc_bytes == 0

    def test_scaling_with_structures(self):
        """Figure 7: 2x structures at T_RH=250 roughly doubles SRAM."""
        base = hydra_storage(HydraConfig())
        doubled = hydra_storage(SystemConfig().with_trh(250).hydra_config())
        assert doubled.gct_bytes == 2 * base.gct_bytes
        assert doubled.rcc_bytes == 2 * base.rcc_bytes

    def test_wider_counters_at_higher_threshold(self):
        """Above T_H=255 the RCT needs 2-byte counters: more meta rows."""
        base = hydra_storage(HydraConfig(trh=500))
        wide = hydra_storage(HydraConfig(trh=1000))
        assert wide.rit_act_bytes == 2 * base.rit_act_bytes
        assert wide.dram_reserved_bytes == 2 * base.dram_reserved_bytes
