"""Tests for the declarative tracker registry and spec strings."""

import inspect
from dataclasses import asdict

import pytest

from repro.core.hydra import HydraTracker
from repro.interfaces import NullTracker
from repro.sim.config import SystemConfig
from repro.sim.simulator import make_tracker, simulate, simulate_workload
from repro.trackers.cat import CatTracker
from repro.trackers.cra import CraTracker
from repro.trackers.dcbf import DcbfTracker
from repro.trackers.graphene import GrapheneTracker
from repro.trackers.insecure import MrlocTracker, ProhitTracker
from repro.trackers.mithril import MithrilTracker
from repro.trackers.ocpr import OcprTracker
from repro.trackers.para import ParaTracker
from repro.trackers.registry import (
    MIN_TRH,
    TrackerSpec,
    available_trackers,
    build_tracker,
    canonical_spec,
    parse_spec,
    tracker_info,
)
from repro.trackers.twice import TwiceTracker

CONFIG = SystemConfig(scale=1 / 128)

#: Every name the pre-registry ``make_tracker`` accepted.
LEGACY_NAMES = (
    "baseline",
    "hydra",
    "hydra-randomized",
    "hydra-nogct",
    "hydra-norcc",
    "graphene",
    "cra",
    "ocpr",
    "cat",
    "twice",
    "mithril",
    "mrloc",
    "prohit",
    "para",
    "dcbf",
)


def legacy_tracker(name, config):
    """The pre-registry name->constructor mapping (parity reference)."""
    if name == "baseline":
        return NullTracker()
    if name == "hydra":
        return HydraTracker(config.hydra_config())
    if name == "hydra-randomized":
        tracker = HydraTracker(config.hydra_config(randomize_mapping=True))
        tracker.name = "hydra-randomized"
        return tracker
    if name == "hydra-nogct":
        return HydraTracker(config.hydra_config(enable_gct=False))
    if name == "hydra-norcc":
        return HydraTracker(config.hydra_config(enable_rcc=False))
    if name == "graphene":
        return GrapheneTracker(
            config.geometry, trh=config.trh, timing=config.timing
        )
    if name == "cra":
        return CraTracker(
            config.geometry,
            trh=config.trh,
            cache_bytes=config.cra_cache_bytes(),
        )
    if name == "ocpr":
        return OcprTracker(config.geometry, trh=config.trh)
    if name == "cat":
        return CatTracker(
            config.geometry, trh=config.trh, timing=config.timing
        )
    if name == "twice":
        return TwiceTracker(
            config.geometry, trh=config.trh, timing=config.timing
        )
    if name == "mithril":
        return MithrilTracker(
            config.geometry, trh=config.trh, timing=config.timing
        )
    if name == "mrloc":
        return MrlocTracker()
    if name == "prohit":
        return ProhitTracker()
    if name == "para":
        return ParaTracker(trh=config.trh)
    if name == "dcbf":
        counters = max(1024, int((1 << 18) * config.scale))
        return DcbfTracker(
            trh=config.trh, counters_per_filter=counters, timing=config.timing
        )
    raise ValueError(f"unknown tracker {name!r}")


class TestRegistryParity:
    """The registry must rebuild every legacy tracker identically."""

    def test_catalogue_covers_all_legacy_names(self):
        assert set(LEGACY_NAMES) <= set(available_trackers())

    @pytest.mark.parametrize("name", LEGACY_NAMES)
    def test_same_tracker_as_legacy_construction(self, name):
        old = legacy_tracker(name, CONFIG)
        new = make_tracker(name, CONFIG)
        assert type(new) is type(old)
        assert getattr(new, "name", name) == getattr(old, "name", name)
        assert new.sram_bytes() == old.sram_bytes()
        assert new.dram_reserved_bytes() == old.dram_reserved_bytes()

    def test_trh_param_matches_with_trh_route(self):
        via_spec = make_tracker("hydra@trh=250", CONFIG)
        via_config = legacy_tracker("hydra", CONFIG.with_trh(250))
        assert via_spec.sram_bytes() == via_config.sram_bytes()
        assert (
            via_spec.dram_reserved_bytes() == via_config.dram_reserved_bytes()
        )

    def test_every_tracker_has_summary_line(self):
        for name in available_trackers():
            assert tracker_info(name).summary


class TestThresholdRule:
    """``SystemConfig.with_trh`` is the one T_RH scaling rule."""

    def test_spec_trh_builds_the_with_trh_hydra(self):
        for trh in range(MIN_TRH, 601):
            built = make_tracker(f"hydra@trh={trh}", CONFIG)
            expected = HydraTracker(CONFIG.with_trh(trh).hydra_config())
            assert built.config == expected.config, trh
            assert built.sram_bytes() == expected.sram_bytes(), trh

    @pytest.mark.parametrize(
        "trh, scale",
        [(32000, 1), (500, 1), (250, 2), (166, 2), (125, 4), (100, 4),
         (50, 8), (10, 32), (4, 64)],
    )
    def test_structure_scale_rounds_down_to_a_power_of_two(self, trh, scale):
        assert SystemConfig().with_trh(trh).structure_scale == scale


class TestSpecParsing:
    def test_bare_name(self):
        spec = parse_spec("hydra")
        assert spec == TrackerSpec(name="hydra")
        assert spec.canonical() == "hydra"

    def test_params_coerced_and_sorted(self):
        spec = parse_spec("hydra@trh=250, rcc_ways = 8")
        assert spec.params == (("rcc_ways", 8), ("trh", 250))
        assert spec.canonical() == "hydra@rcc_ways=8,trh=250"

    def test_canonical_round_trips(self):
        text = "hydra@enable_gct=false,tg_fraction=0.65,trh=250"
        assert canonical_spec(text) == text
        assert parse_spec(canonical_spec(text)) == parse_spec(text)

    def test_canonical_is_order_insensitive(self):
        assert canonical_spec("hydra@trh=250,rcc_ways=8") == canonical_spec(
            "hydra@rcc_ways=8,trh=250"
        )

    def test_bool_spellings(self):
        assert parse_spec("hydra@enable_gct=no").params == (
            ("enable_gct", False),
        )
        assert parse_spec("hydra@enable_gct=ON").params == (
            ("enable_gct", True),
        )

    def test_parse_accepts_parsed_spec(self):
        spec = parse_spec("graphene@trh=250")
        assert parse_spec(spec) is spec


class TestSpecErrors:
    def test_unknown_tracker_lists_available(self):
        with pytest.raises(ValueError, match="unknown tracker 'nope'"):
            parse_spec("nope")
        with pytest.raises(ValueError, match="hydra"):
            parse_spec("nope@trh=1")

    def test_unknown_param_lists_schema(self):
        with pytest.raises(
            ValueError, match="no parameter 'bogus'.*parameters:"
        ):
            parse_spec("hydra@bogus=1")

    def test_param_of_other_tracker_rejected(self):
        with pytest.raises(ValueError, match="no parameter 'cache_kb'"):
            parse_spec("graphene@cache_kb=128")

    def test_malformed_pair(self):
        with pytest.raises(ValueError, match="malformed parameter"):
            parse_spec("hydra@trh")

    def test_empty_parameter_list(self):
        with pytest.raises(ValueError, match="empty parameter list"):
            parse_spec("hydra@")

    def test_duplicate_param(self):
        with pytest.raises(ValueError, match="duplicate parameter 'trh'"):
            parse_spec("hydra@trh=250,trh=500")

    def test_bad_int_value(self):
        with pytest.raises(ValueError, match="'abc' is not int"):
            parse_spec("hydra@gct_entries=abc")

    def test_bad_bool_value(self):
        with pytest.raises(ValueError, match="not a boolean"):
            parse_spec("hydra@enable_gct=maybe")

    def test_rcc_kb_and_entries_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            build_tracker("hydra@rcc_kb=24,rcc_entries=8192", CONFIG)


class TestParameterizedBuilds:
    def test_rcc_kb_equivalent_to_entries(self):
        """24 KB at 3 B/entry is exactly 8192 entries (the default)."""
        by_kb = make_tracker("hydra@rcc_kb=24", CONFIG)
        by_entries = make_tracker("hydra@rcc_entries=8192", CONFIG)
        assert by_kb.sram_bytes() == by_entries.sram_bytes()
        assert by_kb.dram_reserved_bytes() == by_entries.dram_reserved_bytes()

    def test_gct_entries_override_shrinks_sram(self):
        small = make_tracker("hydra@gct_entries=16384", CONFIG)
        default = make_tracker("hydra", CONFIG)
        assert small.sram_bytes() < default.sram_bytes()

    def test_cra_cache_kb_override_grows_cache(self):
        small = make_tracker("cra", CONFIG)
        large = make_tracker("cra@cache_kb=256", CONFIG)
        assert large.sram_bytes() > small.sram_bytes()


class TestSimulateIntegration:
    def test_spec_route_matches_systemconfig_route(self):
        """ISSUE acceptance: ``hydra@trh=1000`` == SystemConfig route."""
        config = SystemConfig(scale=1 / 128, n_windows=1)
        via_spec = simulate_workload(config, "hydra@trh=1000", "xz")
        via_config = simulate_workload(config.with_trh(1000), "hydra", "xz")
        assert asdict(via_spec) == asdict(via_config)

    def test_simulate_has_no_tracker_isinstance_checks(self):
        assert "isinstance" not in inspect.getsource(simulate)

    def test_extra_stats_replaces_isinstance_dispatch(self):
        assert "distribution" in make_tracker("hydra", CONFIG).extra_stats()
        assert "cache_miss_rate" in make_tracker("cra", CONFIG).extra_stats()
        assert NullTracker().extra_stats() == {}
