"""Differential test: the fast engine's fused loop vs a reference.

``MemoryController.run_trace`` is one fused loop: the limited-MLP
window, the demand access and ``Bank.access`` inlined, its per-request
counters batched into locals. ``ReferenceMemoryController`` below keeps
the straightforward path it replaced: the window loop calling a
per-request ``access``, which calls ``Bank.access`` and reports each
activation through ``_report_activation``, every counter bumped in
place. Both must produce the same ``RunResult`` bytes and the same
DRAM activity, with the rank activation windows off (the default
timing) and on (no golden cell exercises them), on Table 3 workloads
and on random plain-tuple traces.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HydraConfig
from repro.core.hydra import HydraTracker
from repro.dram.timing import DramGeometry, DramTiming
from repro.memctrl import build_controller
from repro.memctrl.base import EngineRunOutcome
from repro.memctrl.controller import MemoryController
from repro.sim import simulator
from repro.sim.config import SystemConfig
from repro.sim.simulator import make_tracker, simulate, trace_for_workload
from repro.workloads.trace import Trace

#: mcf at T_RH=125 drives every feedback path in ~6k requests:
#: Hydra's and CRA's metadata traffic, victim refreshes from Hydra,
#: Graphene and CRA, and D-CBF's rate-control delays with its
#: half-window filter rotation (reset_divisor=2).
CONFIG = SystemConfig(scale=1 / 512, n_windows=1, trh=125)
WORKLOAD = "mcf"
SPECS = ["baseline", "hydra", "graphene", "cra", "dcbf"]


class ReferenceMemoryController(MemoryController):
    """The per-request path the fused loop replaced.

    ``run_trace`` is the original ``drive_in_order`` window loop and
    ``access`` the original per-request demand access, with the bank's
    open row keyed by the global row id.
    """

    def run_trace(self, trace, mlp: int = 16) -> EngineRunOutcome:
        if mlp <= 0:
            raise ValueError("mlp must be positive")
        window = [0.0] * mlp
        issue = 0.0
        total_latency = 0.0
        count = 0
        for gap_ns, row_id, n_lines, is_write in trace:
            earliest = issue + gap_ns
            slot = count % mlp
            start = window[slot]
            if start < earliest:
                start = earliest
            issue = start
            done = self.access(start, row_id, n_lines, is_write)
            window[slot] = done
            total_latency += done - start
            count += 1
        end = max(window) if count else 0.0
        return EngineRunOutcome(
            end_time_ns=end, requests=count, total_latency_ns=total_latency
        )

    def access(
        self, at: float, row_id: int, n_lines: int = 1, is_write: bool = False
    ) -> float:
        """One demand access of ``n_lines`` lines; returns completion time."""
        if at >= self._window.next_reset:  # scalar form of _window.due(at)
            self._advance_window(at)
        bank_index = row_id // self._rows_per_bank
        bank = self.banks[bank_index]
        bus = self.buses[bank_index // self._banks_per_channel]
        result = bank.access(at, row_id, n_lines, bus, is_write)
        self.stats.demand_accesses += 1
        self.stats.demand_line_transfers += n_lines
        completion = result.completion
        if result.activated:
            delay = self._report_activation(row_id, result.act_time)
            if delay:
                completion += delay
                self.stats.total_delay_ns += delay
        if completion > self.end_time:
            self.end_time = completion
        return completion


class PlainTuples:
    """A trace as bare ``(gap_ns, row_id, n_lines, is_write)`` tuples.

    It has no ``resolved_stream``, so an engine resolves it one request
    at a time.
    """

    def __init__(self, trace):
        self.name = trace.name
        self._requests = list(trace)

    def __iter__(self):
        return iter(self._requests)


def _run(source, spec, monkeypatch, engine=MemoryController):
    """Simulate ``source`` on ``engine``, returning result and controller."""
    built = []

    def capture(name, geometry, timing, tracker=None, blast_radius=2):
        assert name == "fast"
        built.append(engine(geometry, timing, tracker, blast_radius=blast_radius))
        return built[-1]

    with monkeypatch.context() as patch:
        patch.setattr(simulator, "build_controller", capture)
        result = simulate(source, CONFIG, spec)
    (controller,) = built
    return result, controller


def _activity(controller):
    activity = controller.activity()
    return {spec.name: getattr(activity, spec.name) for spec in fields(activity)}


def _assert_paths_agree(trace, spec, monkeypatch):
    fused, fused_mc = _run(trace, spec, monkeypatch)
    generic, generic_mc = _run(
        PlainTuples(trace), spec, monkeypatch, engine=ReferenceMemoryController
    )
    assert fused.to_dict() == generic.to_dict()
    assert _activity(fused_mc) == _activity(generic_mc)
    assert fused_mc.stats == generic_mc.stats
    assert fused_mc.end_time == generic_mc.end_time
    # The fused loop batches its demand counters; the reference counts
    # them in the banks. Only their sum is reported.
    assert fused_mc.demand_activity.activations > 0
    assert generic_mc.demand_activity.activations == 0
    # Plain tuples take the same fused loop as the Trace.
    tuples, tuples_mc = _run(PlainTuples(trace), spec, monkeypatch)
    assert tuples.to_dict() == fused.to_dict()
    assert tuples_mc.demand_activity == fused_mc.demand_activity
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
    controller = build_controller(
        CONFIG.engine,
        CONFIG.geometry,
        CONFIG.timing,
        make_tracker("hydra", CONFIG),
    )
    assert controller.rank_windows == []
    assert all(bank._act_window is None for bank in controller.banks)


#: Two channels of two banks: random rows land on every bank and bus.
GEOMETRY = DramGeometry(
    channels=2,
    ranks_per_channel=1,
    banks_per_rank=2,
    rows_per_bank=1024,
    row_size_bytes=256,
)
#: A few rows per bank, so row hits, conflicts and Hydra's group,
#: row-cache and metadata paths all occur within a few hundred ACTs.
ROWS = [bank * GEOMETRY.rows_per_bank + row for bank in range(4) for row in range(6)]

requests = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=3000.0),
        st.sampled_from(ROWS),
        st.integers(min_value=1, max_value=8),
        st.booleans(),
    ),
    max_size=400,
)


@given(
    trace=requests,
    mlp=st.integers(min_value=1, max_value=16),
    rank_windows=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_plain_tuples_match_reference(trace, mlp, rank_windows):
    # A 250 us tracking window: longer traces cross window resets.
    timing = DramTiming(
        t_faw=30.0 if rank_windows else 0.0,
        t_rrd=6.0 if rank_windows else 0.0,
    ).scaled(1 / 256)
    controllers = []
    outcomes = []
    for engine in (MemoryController, ReferenceMemoryController):
        tracker = HydraTracker(
            HydraConfig(
                geometry=GEOMETRY,
                trh=40,
                gct_entries=16,
                rcc_entries=8,
                rcc_ways=4,
            )
        )
        controller = engine(GEOMETRY, timing, tracker)
        outcomes.append(controller.run_trace(trace, mlp=mlp))
        controllers.append(controller)
    fused, reference = controllers
    assert outcomes[0] == outcomes[1]
    assert fused.stats == reference.stats
    assert _activity(fused) == _activity(reference)
    assert fused.end_time == reference.end_time
    assert fused.tracker.stats == reference.tracker.stats


def _gaps_landing_on(times):
    """Gaps whose running sum, added as the engines add it (``issue +
    gap``), lands on each of ``times`` (ascending): exactly where some
    gap reaches it, else on the nearest time a gap reaches (a sum can
    round past a target whose ulp is coarser than the issue time's)."""
    gaps = []
    issue = 0.0
    for target in times:
        # An earlier sum may have rounded past this target.
        gap = max(target - issue, 0.0)
        candidates = [gap]
        for _ in range(4):
            candidates.append(math.nextafter(candidates[-1], math.inf))
            candidates.insert(0, math.nextafter(candidates[0], -math.inf))
        gap = min(
            (g for g in candidates if g >= 0.0),
            key=lambda g: (abs(issue + g - target), abs(g - gap)),
        )
        gaps.append(gap)
        issue += gap
    return gaps


#: Arrivals on a refresh boundary: tREFI interval ``k``, at its REF
#: (k·tREFI) or at the end of its blackout (k·tREFI + tRFC), moved by
#: -1, 0 or +1 ulp, then repeated with zero gaps. Late intervals make
#: the ulps coarse.
boundary_requests = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40)
        | st.integers(min_value=100_000, max_value=100_003),
        st.booleans(),
        st.sampled_from((-1, 0, 1)),
        st.integers(min_value=0, max_value=3),
        st.sampled_from(ROWS),
        st.integers(min_value=1, max_value=4),
        st.booleans(),
    ),
    min_size=1,
    max_size=60,
)


def _boundary_timing(rank_windows):
    return DramTiming(
        t_faw=30.0 if rank_windows else 0.0,
        t_rrd=6.0 if rank_windows else 0.0,
    ).scaled(1 / 256)


def _boundary_arrivals(points, timing):
    """``(arrival, row, n_lines, is_write)`` per request, in draw order."""
    arrivals = []
    for k, after_blackout, ulps, repeats, row, n_lines, is_write in points:
        at = k * timing.t_refi + (timing.t_rfc if after_blackout else 0.0)
        for _ in range(abs(ulps)):
            at = math.nextafter(at, math.copysign(math.inf, ulps))
        if at >= 0.0:
            arrivals.extend([(at, row, n_lines, is_write)] * (1 + repeats))
    return arrivals


def _assert_matches_reference(trace, timing):
    """The fused loop and the reference agree on ``trace`` under Hydra
    feedback."""
    controllers = []
    outcomes = []
    for engine in (MemoryController, ReferenceMemoryController):
        tracker = HydraTracker(
            HydraConfig(
                geometry=GEOMETRY,
                trh=40,
                gct_entries=16,
                rcc_entries=8,
                rcc_ways=4,
            )
        )
        controller = engine(GEOMETRY, timing, tracker)
        outcomes.append(controller.run_trace(trace, mlp=16))
        controllers.append(controller)
    fused, reference = controllers
    assert outcomes[0] == outcomes[1]
    assert fused.stats == reference.stats
    assert _activity(fused) == _activity(reference)
    assert fused.end_time == reference.end_time
    assert fused.tracker.stats == reference.tracker.stats


@given(points=boundary_requests, rank_windows=st.booleans())
@settings(max_examples=60, deadline=None)
def test_refresh_boundary_arrivals_match_reference(points, rank_windows):
    """The refresh-blackout guard skips ``%`` only where an exact ``%``
    proved a stretch clear; arrivals on and one ulp either side of
    every REF and blackout end must resolve as the reference does."""
    timing = _boundary_timing(rank_windows)
    arrivals = sorted(_boundary_arrivals(points, timing), key=lambda a: a[0])
    gaps = _gaps_landing_on([arrival[0] for arrival in arrivals])
    trace = [
        (gap, row, n_lines, is_write)
        for gap, (_, row, n_lines, is_write) in zip(gaps, arrivals)
    ]
    _assert_matches_reference(trace, timing)


@given(points=boundary_requests, rank_windows=st.booleans())
@settings(max_examples=40, deadline=None)
def test_backward_arrivals_are_refused(points, rank_windows):
    """Arrivals in draw order may go backwards. A ``Trace`` refuses the
    negative gap that takes them there when it is built, so no source
    hands the fused loop a backward start; traces in order still match
    the reference."""
    timing = _boundary_timing(rank_windows)
    arrivals = _boundary_arrivals(points, timing)
    gaps = np.diff([0.0] + [arrival[0] for arrival in arrivals])

    def build():
        return Trace(
            gaps_ns=gaps,
            rows=np.array([arrival[1] for arrival in arrivals], dtype=np.int64),
            lines=np.array([arrival[2] for arrival in arrivals], dtype=np.int32),
            writes=np.array([arrival[3] for arrival in arrivals], dtype=bool),
        )

    backward = np.flatnonzero(gaps < 0)
    if len(backward):
        with pytest.raises(
            ValueError, match=rf"^trace: request {backward[0]}: gap_ns must"
        ):
            build()
    else:
        _assert_matches_reference(build(), timing)
