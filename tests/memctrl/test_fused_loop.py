"""Differential test: the fast engine's fused loop vs its generic path.

``MemoryController.run_trace`` replays any source with a
``resolved_stream`` through ``_run_resolved_stream``, one loop with
``drive_in_order``, ``access`` and ``Bank.access`` inlined, its
per-request counters batched into locals. A plain iterable of tuples
has no ``resolved_stream``, so the same trace then runs through the
generic ``drive_in_order`` + ``access`` + ``Bank.access`` path, one
call per request. Both must produce the same ``RunResult`` bytes and
the same DRAM activity, with the rank activation windows off (the
default timing) and on (no golden cell exercises them).
"""

from dataclasses import fields, replace

import pytest

from repro.sim.config import SystemConfig
from repro.sim.simulator import simulate, trace_for_workload
from repro.sim.spec import RunSpec

#: mcf at T_RH=125 drives every feedback path in ~6k requests:
#: Hydra's and CRA's metadata traffic, victim refreshes from Hydra,
#: Graphene and CRA, and D-CBF's rate-control delays with its
#: half-window filter rotation (reset_divisor=2).
CONFIG = SystemConfig(scale=1 / 512, n_windows=1, trh=125)
WORKLOAD = "mcf"
SPECS = ["baseline", "hydra", "graphene", "cra", "dcbf"]


class PlainTuples:
    """A trace as bare ``(gap_ns, row_id, n_lines, is_write)`` tuples.

    It has no ``resolved_stream``, so the fast engine replays it
    through ``drive_in_order`` and ``Bank.access``.
    """

    def __init__(self, trace):
        self.name = trace.name
        self._requests = list(trace)

    def __iter__(self):
        return iter(self._requests)


def _run(source, spec, monkeypatch):
    """Simulate ``source``, returning the result and its controller."""
    built = []
    build = RunSpec.build_controller

    def capture(self, config, **kwargs):
        built.append(build(self, config, **kwargs))
        return built[-1]

    with monkeypatch.context() as patch:
        patch.setattr(RunSpec, "build_controller", capture)
        result = simulate(source, CONFIG, spec)
    (controller,) = built
    return result, controller


def _activity(controller):
    activity = controller.activity()
    return {spec.name: getattr(activity, spec.name) for spec in fields(activity)}


def _assert_paths_agree(trace, spec, monkeypatch):
    fused, fused_mc = _run(trace, spec, monkeypatch)
    generic, generic_mc = _run(PlainTuples(trace), spec, monkeypatch)
    assert fused.to_dict() == generic.to_dict()
    assert _activity(fused_mc) == _activity(generic_mc)
    assert fused_mc.stats == generic_mc.stats
    assert fused_mc.end_time == generic_mc.end_time
    # The fused loop batches its demand counters; the generic path
    # counts them in the banks. Only their sum is reported.
    assert fused_mc.demand_activity.activations > 0
    assert generic_mc.demand_activity.activations == 0
    return fused, fused_mc


@pytest.mark.parametrize("spec", SPECS)
def test_fused_loop_matches_generic_path(spec, monkeypatch):
    trace = trace_for_workload(CONFIG, WORKLOAD)
    result, _ = _assert_paths_agree(trace, spec, monkeypatch)
    if spec == "dcbf":
        assert result.extra["total_delay_ns"] > 0
        assert result.window_resets == 2
    if spec in ("hydra", "cra"):
        assert result.meta_accesses > 0
    if spec in ("hydra", "graphene", "cra"):
        assert result.victim_refreshes > 0


@pytest.mark.parametrize("spec", SPECS)
def test_fused_loop_matches_with_rank_windows(spec, monkeypatch):
    trace = trace_for_workload(CONFIG, WORKLOAD)
    unconstrained = simulate(trace, CONFIG, spec)
    timing_of = SystemConfig.timing.fget
    monkeypatch.setattr(
        SystemConfig,
        "timing",
        property(lambda config: replace(timing_of(config), t_faw=30.0, t_rrd=6.0)),
    )
    result, controller = _assert_paths_agree(trace, spec, monkeypatch)
    assert len(controller.rank_windows) == 2
    assert all(bank._act_window is not None for bank in controller.banks)
    # The windows must actually move ACTs, or this repeats the test
    # above.
    assert result.average_latency_ns != unconstrained.average_latency_ns


def test_no_rank_windows_at_default_timing():
    timing = CONFIG.timing
    assert timing.t_faw == 0 and timing.t_rrd == 0
    controller = RunSpec.coerce(spec="hydra").build_controller(CONFIG)
    assert controller.rank_windows == []
    assert all(bank._act_window is None for bank in controller.banks)
