"""What a simulation runs: a spec string plus a SystemConfig.

There is no third description: the spec names the tracker (and may
override the config's ``engine``), the config names
everything else, and ``simulate`` takes nothing more.
"""

import inspect

import pytest

from repro import api
from repro.core import HydraTracker
from repro.interfaces import NullTracker
from repro.sim import SystemConfig, make_tracker, simulate, simulate_workload
from repro.sim import simulator
from repro.trackers.registry import build_tracker, parse_spec
from repro.workloads.trace import Trace

CONFIG = SystemConfig(scale=1 / 128, n_windows=1)


def small_trace():
    return Trace.from_rows([i % 64 for i in range(300)], gap_ns=20.0)


def built_controller(monkeypatch, config, spec):
    """The engine and tracker ``simulate`` hands to ``build_controller``."""
    calls = []
    build = simulator.build_controller

    def capture(engine, **kwargs):
        calls.append((engine, kwargs["tracker"]))
        return build(engine, **kwargs)

    monkeypatch.setattr(simulator, "build_controller", capture)
    simulate(small_trace(), config, spec)
    (call,) = calls
    return call


class TestConstruction:
    def test_defaults(self):
        for entry in (simulate, simulate_workload, api.run):
            default = inspect.signature(entry).parameters["spec"].default
            assert default == "hydra", entry
        result = simulate(small_trace(), CONFIG)
        assert (result.tracker, result.engine) == ("hydra", "fast")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            parse_spec("hydra").name = "cra"

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            parse_spec("hydra@engine=warp")
        with pytest.raises(ValueError, match="unknown engine"):
            simulate(small_trace(), CONFIG, "hydra@engine=warp")

    def test_conflicting_spec_and_argument_engines_raise(self):
        # There is no engine argument to disagree with the spec.
        with pytest.raises(TypeError, match="engine"):
            simulate(small_trace(), CONFIG, "hydra@engine=queued", engine="fast")

    def test_matching_engines_allowed(self):
        result = simulate(
            small_trace(), CONFIG.with_engine("queued"), "hydra@engine=queued"
        )
        assert result.engine == "queued"

    def test_instance_label_never_parsed_as_spec(self):
        # The result is labelled by the built tracker, not the spec.
        result = simulate(small_trace(), CONFIG, "hydra@trh=1000,engine=queued")
        assert result.tracker == "hydra"


class TestCoerce:
    def test_bare_string(self, monkeypatch):
        _, tracker = built_controller(monkeypatch, CONFIG, "cra@cache_kb=128")
        assert tracker.name == "cra"

    def test_none_means_default(self):
        trace = small_trace()
        assert (
            simulate(trace, CONFIG).to_dict()
            == simulate(trace, CONFIG, "hydra").to_dict()
        )

    def test_runspec_passthrough(self, monkeypatch):
        # simulate_workload hands its spec string on untouched.
        spec = "cra@cache_kb=128"
        seen = []
        monkeypatch.setattr(
            simulator,
            "simulate",
            lambda trace, config, spec, observe=None: seen.append(spec),
        )
        simulate_workload(CONFIG, spec, "xz")
        assert seen == [spec] and seen[0] is spec

    def test_runspec_plus_engine_merges(self, monkeypatch):
        engine, tracker = built_controller(monkeypatch, CONFIG, "cra@engine=queued")
        assert (engine, tracker.name) == ("queued", "cra")

    def test_runspec_plus_conflicting_engine_raises(self):
        with pytest.raises(ValueError, match="duplicate parameter 'engine'"):
            parse_spec("cra@engine=fast,engine=queued")

    def test_spec_with_instance_raises(self):
        with pytest.raises(TypeError, match="tracker"):
            simulate(small_trace(), CONFIG, "hydra", tracker=NullTracker())

    def test_instance_adopts_name_attribute(self):
        for spec in ("baseline", "hydra-nogct", "graphene", "ocpr"):
            result = simulate(small_trace(), CONFIG, spec)
            assert result.tracker == make_tracker(spec, CONFIG).name


class TestResolution:
    def test_engine_precedence_explicit_spec_config(self, monkeypatch):
        queued_config = CONFIG.with_engine("queued")
        # config alone
        engine, _ = built_controller(monkeypatch, queued_config, "hydra")
        assert engine == "queued"
        # spec beats config
        engine, _ = built_controller(monkeypatch, queued_config, "hydra@engine=fast")
        assert engine == "fast"

    def test_build_tracker_from_spec_string(self):
        tracker = build_tracker("hydra@trh=1000", CONFIG)
        assert isinstance(tracker, HydraTracker)
        assert tracker.config == CONFIG.with_trh(1000).hydra_config()

    def test_build_controller_carries_tracker_and_engine(self, monkeypatch):
        engine, tracker = built_controller(
            monkeypatch, CONFIG.with_engine("queued"), "baseline"
        )
        assert engine == "queued"
        assert isinstance(tracker, NullTracker)

    def test_result_tracker_label(self):
        result = simulate(small_trace(), CONFIG, "baseline")
        assert result.tracker == NullTracker().name
