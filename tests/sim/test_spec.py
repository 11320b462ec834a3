"""RunSpec: the one value object describing what a simulation runs."""

import pytest

from repro.core import HydraTracker
from repro.sim import DEFAULT_TRACKER, RunSpec, SystemConfig
from repro.interfaces import NullTracker

CONFIG = SystemConfig(scale=1 / 128, n_windows=1)


class TestConstruction:
    def test_defaults(self):
        spec = RunSpec()
        assert spec.tracker == DEFAULT_TRACKER
        assert spec.engine is None
        assert spec.instance is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunSpec().tracker = "cra"

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            RunSpec(engine="warp")

    def test_conflicting_spec_and_argument_engines_raise(self):
        with pytest.raises(ValueError, match="conflicting engines"):
            RunSpec(tracker="hydra@engine=queued", engine="fast")

    def test_matching_engines_allowed(self):
        spec = RunSpec(tracker="hydra@engine=queued", engine="queued")
        assert spec.resolved_engine(CONFIG) == "queued"

    def test_instance_label_never_parsed_as_spec(self):
        # A hand-built tracker's label may contain anything; it must
        # not be fed through the registry's spec grammar.
        tracker = NullTracker()
        spec = RunSpec(
            tracker="custom@weird=label", engine="fast", instance=tracker
        )
        assert spec.build_tracker(CONFIG) is tracker


class TestCoerce:
    def test_bare_string(self):
        spec = RunSpec.coerce("cra@cache_kb=128")
        assert spec.tracker == "cra@cache_kb=128"

    def test_none_means_default(self):
        assert RunSpec.coerce() == RunSpec()

    def test_runspec_passthrough(self):
        original = RunSpec(tracker="cra")
        assert RunSpec.coerce(original) is original

    def test_runspec_plus_engine_merges(self):
        merged = RunSpec.coerce(RunSpec(tracker="cra"), engine="queued")
        assert merged.engine == "queued"
        assert merged.tracker == "cra"

    def test_runspec_plus_conflicting_engine_raises(self):
        with pytest.raises(ValueError, match="conflicting engines"):
            RunSpec.coerce(RunSpec(tracker="cra", engine="fast"), engine="queued")

    def test_spec_with_instance_raises(self):
        with pytest.raises(ValueError, match="alone"):
            RunSpec.coerce("hydra", tracker=NullTracker())

    def test_instance_adopts_name_attribute(self):
        spec = RunSpec.coerce(tracker=NullTracker())
        assert spec.instance is not None
        assert spec.tracker == getattr(
            spec.instance, "name", type(spec.instance).__name__
        )


class TestResolution:
    def test_engine_precedence_explicit_spec_config(self):
        queued_config = CONFIG.with_engine("queued")
        # config alone
        assert RunSpec().resolved_engine(queued_config) == "queued"
        # spec beats config
        assert (
            RunSpec(tracker="hydra@engine=fast").resolved_engine(queued_config)
            == "fast"
        )
        # explicit beats config
        assert RunSpec(engine="fast").resolved_engine(queued_config) == "fast"

    def test_build_tracker_from_spec_string(self):
        tracker = RunSpec(tracker="hydra@trh=1000").build_tracker(CONFIG)
        assert isinstance(tracker, HydraTracker)

    def test_build_controller_carries_tracker_and_engine(self):
        spec = RunSpec(tracker="baseline", engine="queued")
        controller = spec.build_controller(CONFIG)
        assert controller.engine == "queued"
        assert isinstance(controller.tracker, NullTracker)

    def test_result_tracker_label(self):
        tracker = NullTracker()
        spec = RunSpec.coerce(tracker=tracker)
        assert spec.result_tracker_label(tracker) == getattr(
            tracker, "name", type(tracker).__name__
        )
