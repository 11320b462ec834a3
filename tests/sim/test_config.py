"""Tests for the top-level SystemConfig."""

import json

import pytest

from repro.sim.config import (
    SystemConfig,
    baseline_table2,
    default_jobs,
    default_scale,
)
from repro.sim.grid import GridSpec


class TestDerivedHardware:
    def test_full_scale_is_paper_system(self):
        cfg = SystemConfig(scale=1.0)
        assert cfg.geometry.capacity_bytes == 32 * 1024**3
        assert cfg.timing.refresh_window == 64e6

    def test_scaled_hydra_preserves_group_size(self):
        cfg = SystemConfig(scale=1 / 32)
        assert cfg.hydra_config().group_size == 128

    def test_ablation_configs(self):
        cfg = SystemConfig(scale=1 / 32)
        assert cfg.hydra_config(enable_gct=False).enable_gct is False
        assert cfg.hydra_config(enable_rcc=False).enable_rcc is False

    def test_cra_cache_scales_in_whole_sets(self):
        cfg = SystemConfig(scale=1 / 32)
        cache = cfg.cra_cache_bytes()
        assert cache >= 16 * 64
        assert cache % (16 * 64) == 0

    def test_generator_config_mirrors_system(self):
        cfg = SystemConfig(scale=1 / 32, n_windows=3, seed=7)
        gen = cfg.generator_config()
        assert gen.scale == cfg.scale
        assert gen.n_windows == 3
        assert gen.seed == 7


class TestVariations:
    def test_with_trh_default_structure_scaling(self):
        """Figure 7's policy: structures scale 2x at 250, 4x at 125."""
        assert SystemConfig().with_trh(250).structure_scale == 2
        assert SystemConfig().with_trh(125).structure_scale == 4

    def test_with_gct_entries(self):
        cfg = SystemConfig().with_gct_entries(16384)
        assert cfg.gct_entries_full == 16384

    def test_cache_keys_distinguish_configs(self):
        a = SystemConfig()
        assert a.cache_key() != a.with_trh(250).cache_key()
        assert a.cache_key() != a.with_gct_entries(16384).cache_key()
        assert a.cache_key() != a.with_engine("queued").cache_key()
        assert a.cache_key() == SystemConfig().cache_key()

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            SystemConfig(scale=0.0)
        with pytest.raises(ValueError):
            SystemConfig(scale=1.5)


#: One field out of bounds each; every one used to construct cleanly
#: and fail only inside a simulation.
BAD_FIELDS = [
    {"trh": 2},
    {"mlp": 0},
    {"n_windows": 0},
    {"chunk_lines": 0},
    {"rcc_ways": 0},
    {"tg_fraction": 1.5},
    {"blast_radius": -1},
    {"gct_entries_full": 3},
]


class TestValidation:
    """A ``SystemConfig`` is valid by construction."""

    @pytest.mark.parametrize("field", BAD_FIELDS, ids=str)
    def test_out_of_bound_field_refused(self, field):
        with pytest.raises(ValueError):
            SystemConfig(scale=1 / 256, **field)

    def test_wrong_typed_trh_refused_by_name(self):
        with pytest.raises(TypeError, match="trh"):
            SystemConfig(trh="500")

    @pytest.mark.parametrize("trh", [0, -5, 3])
    def test_with_trh_refuses_by_name_before_dividing(self, trh):
        with pytest.raises(ValueError, match="trh must be >= 4"):
            SystemConfig().with_trh(trh)

    @pytest.mark.parametrize("field", BAD_FIELDS, ids=str)
    def test_grid_json_refuses_bad_config(self, field):
        config = {**SystemConfig(scale=1 / 256).to_dict(), **field}
        text = json.dumps(
            {"trackers": ["baseline", "hydra"], "workloads": ["GUPS"],
             "config": config}
        )
        with pytest.raises(ValueError):
            GridSpec.from_json(text)


class TestEnvironment:
    def test_default_scale_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "64")
        assert default_scale() == pytest.approx(1 / 64)

    def test_default_scale_rejects_bad_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0")
        with pytest.raises(ValueError):
            default_scale()

    @pytest.mark.parametrize(
        "name, read", [("REPRO_SCALE", default_scale), ("REPRO_JOBS", default_jobs)]
    )
    @pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
    def test_bad_env_named_in_error(self, monkeypatch, name, read, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            read()


class TestTable2:
    def test_contents(self):
        table = baseline_table2()
        assert table["Memory size"] == "32 GB - DDR4"
        assert table["Size of row"] == "8KB"
        assert len(table) == 10
