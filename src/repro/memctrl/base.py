"""Shared engine surface of the memory-controller layer.

The repository ships two scheduling *engines* — the fast in-order
:class:`~repro.memctrl.controller.MemoryController` and the
discrete-event FR-FCFS
:class:`~repro.memctrl.queued.QueuedMemoryController` — which differ
only in *how* requests are scheduled. Everything else is one design:

- construction: banks, channel buses, rank activation windows, the
  refresh timeline, the victim-refresh policy, the tracker-feedback
  worklist, and the window-reset schedule are wired identically;
- the tracker contract: every activation (demand, metadata, victim
  refresh) is reported through :class:`TrackerFeedback`, and the
  rate-control delay it returns is charged to the triggering request;
- the reporting surface consumed by :func:`repro.sim.simulator.simulate`
  and the DRAM power model: :class:`ControllerStats`, ``activity()``,
  ``total_refreshes()``, ``bus_utilization()`` and ``result_extras()``.

This module holds that shared design once.  Each engine subclasses
:class:`BaseMemoryController` and implements ``run_trace`` (trace in,
:class:`EngineRunOutcome` out) plus the physical feedback hooks, so
every downstream consumer — ``simulate``, sweeps, the result cache,
benchmarks — is engine-agnostic: pick an engine by name
(:data:`ENGINES`) and the rest of the pipeline is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple

from repro.dram.address import AddressMapper
from repro.dram.bank import (
    Bank,
    ChannelBus,
    DramActivityStats,
    RankActWindow,
    RefreshTimeline,
    average_bus_utilization,
)
from repro.dram.timing import DramGeometry, DramTiming
from repro.interfaces import ActivationTracker, NullTracker
from repro.memctrl.feedback import TrackerFeedback, WindowResetSchedule
from repro.memctrl.mitigation import VictimRefreshPolicy

if TYPE_CHECKING:
    from repro.workloads.trace import LineTotals

#: The selectable scheduling engines, in documentation order.
ENGINES: Tuple[str, ...] = ("fast", "queued")


def normalize_engine(engine: str) -> str:
    """Validate an engine name, returning it unchanged.

    Raises a self-explanatory ``ValueError`` otherwise — engine names
    travel through CLIs, spec strings, and cached configs, so the
    error must name the alternatives.
    """
    if engine == "vector":
        raise ValueError(
            "engine 'vector' was removed (it was bit-identical to 'fast'"
            " and slower); use engine='fast'"
        )
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}: not one of " + ", ".join(ENGINES)
        )
    return engine


@dataclass
class ControllerStats:
    """Aggregate accounting shared by every engine."""

    demand_accesses: int = 0
    demand_line_transfers: int = 0
    meta_accesses: int = 0
    meta_line_transfers: int = 0
    victim_refreshes: int = 0
    tracker_activations: int = 0
    window_resets: int = 0
    #: Total activation delay charged by rate-control trackers (D-CBF).
    total_delay_ns: float = 0.0


@dataclass
class EngineRunOutcome:
    """What running one trace through one engine produces.

    Both engines return this shape (the fast engine from its in-order
    window loop, the queued engine from its scheduler), so one
    ``simulate`` path packages either into a ``RunResult``.
    """

    end_time_ns: float
    requests: int
    total_latency_ns: float

    @property
    def average_latency_ns(self) -> float:
        return self.total_latency_ns / self.requests if self.requests else 0.0


_INF = float("inf")


def _resolve(trace, rows_per_bank: int, totals: "LineTotals"):
    """Resolve plain ``(gap_ns, row_id, n_lines, is_write)`` tuples.

    The scalar twin of ``Trace.resolved_stream`` for iterables that
    lack one: the same 5-tuples and the same ``totals``, computed one
    request at a time. Each request is held to the recorded-trace
    rules (:func:`~repro.workloads.trace.check_requests`, same
    ``ValueError``) before it is yielded: a negative gap would run
    start times backwards, and a negative row would index a bank from
    the end of the bank list.
    """
    lines = 0
    write_lines = 0
    index = -1
    for index, (gap_ns, row_id, n_lines, is_write) in enumerate(trace):
        if not 0 <= gap_ns < _INF or row_id < 0 or n_lines < 1:
            from repro.workloads.trace import request_error

            where = getattr(trace, "name", "trace")
            raise request_error(where, index, gap_ns, row_id, n_lines)
        lines += n_lines
        if is_write:
            write_lines += n_lines
        yield (gap_ns, row_id, row_id // rows_per_bank, n_lines, is_write)
    totals.requests += index + 1
    totals.lines += lines
    totals.write_lines += write_lines


class BaseMemoryController:
    """Construction and reporting shared by both engines.

    Subclasses provide the scheduling mechanism (``run_trace`` plus the
    ``perform_meta_access`` feedback hook); everything a downstream
    consumer touches — stats, activity/refresh/bus reporting, the
    tracker-feedback loop, window resets — lives here.
    """

    #: Engine name subclasses advertise (one of :data:`ENGINES`).
    engine: str = "base"
    #: Stats container an engine populates (queued extends it).
    stats_class = ControllerStats

    def __init__(
        self,
        geometry: DramGeometry,
        timing: DramTiming,
        tracker: Optional[ActivationTracker] = None,
        blast_radius: int = 2,
        count_mitigation_acts: bool = True,
        max_feedback_depth: int = 4,
    ) -> None:
        self.geometry = geometry
        self.timing = timing
        self.tracker = tracker if tracker is not None else NullTracker()
        self.mapper = AddressMapper(geometry)
        self.refresh = RefreshTimeline(timing)
        # Rank activation windows exist only when tFAW or tRRD is
        # enabled: a window with both at 0 never moves an ACT, and
        # ``act_window=None`` lets every bank path skip it outright.
        n_ranks = geometry.channels * geometry.ranks_per_channel
        self.rank_windows = (
            [RankActWindow(timing.t_faw, timing.t_rrd) for _ in range(n_ranks)]
            if timing.t_faw or timing.t_rrd
            else []
        )
        self.banks = [
            Bank(
                timing,
                self.refresh,
                act_window=(
                    self.rank_windows[index // geometry.banks_per_rank]
                    if self.rank_windows
                    else None
                ),
            )
            for index in range(geometry.total_banks)
        ]
        self.buses = [ChannelBus(timing) for _ in range(geometry.channels)]
        self.policy = VictimRefreshPolicy(self.mapper, blast_radius)
        #: Mitigation-induced activations are re-tracked (§5.2.1) up
        #: to this chain depth; see :class:`TrackerFeedback`.
        self.count_mitigation_acts = count_mitigation_acts
        self.max_feedback_depth = max_feedback_depth
        self._feedback = TrackerFeedback(
            self.tracker, self.policy, max_feedback_depth
        )
        self.stats = self.stats_class()
        #: Demand-traffic DRAM counters an engine batches instead of
        #: bumping ``Bank.stats`` per request; ``activity()`` merges
        #: them with the banks' own counts.
        self.demand_activity = DramActivityStats()
        self._rows_per_bank = geometry.rows_per_bank
        self._banks_per_channel = (
            geometry.ranks_per_channel * geometry.banks_per_rank
        )
        #: Channel, and channel bus, of each bank index: the resolved
        #: stream carries only the bank index.
        self._bank_channels = [
            index // self._banks_per_channel
            for index in range(geometry.total_banks)
        ]
        self._bank_buses = [self.buses[channel] for channel in self._bank_channels]
        self._window = WindowResetSchedule(timing, self.tracker)
        self.end_time = 0.0

    # ------------------------------------------------------------------
    # Engine protocol
    # ------------------------------------------------------------------

    def run_trace(self, trace, mlp: int = 16) -> EngineRunOutcome:
        """Replay one trace with at most ``mlp`` outstanding requests."""
        raise NotImplementedError

    def _resolved_stream(self, trace, totals: "LineTotals") -> Iterator[tuple]:
        """The one request stream both engines' loops consume.

        Yields ``(gap_ns, row_id, bank_index, n_lines, is_write)`` and
        adds the request count and line sums to ``totals``
        (:class:`~repro.workloads.trace.LineTotals`); an engine maps a
        bank index to its bus and channel through the per-bank lists
        ``_bank_buses`` and ``_bank_channels``, and keys the bank's
        open row by the global ``row_id``. Any
        :class:`~repro.workloads.streaming.TraceSource` exposing
        ``resolved_stream`` (an in-RAM
        :class:`~repro.workloads.trace.Trace`, a chunked on-disk trace,
        an external-format reader) resolves its bank indices and sums
        per chunk in numpy; any other iterable of ``(gap_ns,
        row_id, n_lines, is_write)`` tuples is checked and resolved one
        request at a time by :func:`_resolve`. Both forms are pulled
        lazily, so a bounded-memory source stays bounded, and ``totals``
        is complete once the stream is drained.
        """
        resolved = getattr(trace, "resolved_stream", None)
        if resolved is None:
            return _resolve(trace, self._rows_per_bank, totals)
        return iter(resolved(self._rows_per_bank, totals))

    # ------------------------------------------------------------------
    # Tracker feedback loop
    # ------------------------------------------------------------------

    def _report_activation(self, row_id: int, at: float) -> float:
        """Feed one activation (plus all follow-up) into the tracker.

        Returns the total rate-control delay (ns) the tracker
        requested; engines charge it to the triggering request. The
        worklist itself lives in
        :class:`~repro.memctrl.feedback.TrackerFeedback`; the hooks
        below describe how each engine physically performs the
        requested metadata traffic and victim refreshes.
        """
        return self._feedback.drive(row_id, at, self)

    # FeedbackHandler hooks -------------------------------------------

    def on_tracker_activation(self, row_id: int) -> None:
        self.stats.tracker_activations += 1

    def perform_meta_access(self, meta, at: float) -> bool:
        raise NotImplementedError

    def perform_victim_refresh(self, victim_row: int, at: float) -> bool:
        self.banks[victim_row // self._rows_per_bank].refresh_row(at)
        self.stats.victim_refreshes += 1
        return self.count_mitigation_acts

    # ------------------------------------------------------------------
    # Window management and reporting
    # ------------------------------------------------------------------

    def _channel_of(self, row_id: int) -> int:
        return (row_id // self._rows_per_bank) // self._banks_per_channel

    def _advance_window(self, at: float) -> None:
        self.stats.window_resets += self._window.advance(at, self.tracker)

    def activity(self) -> DramActivityStats:
        """Merged command counts: batched demand traffic plus all banks.

        Each engine's fused loop adds its demand counters (the queued
        engine's: its demand reads) to ``demand_activity`` once per
        trace, so ``Bank.stats`` hold the rest: feedback traffic
        (metadata accesses, victim refreshes) and every other path
        through :meth:`Bank.access`, such as the queued engine's
        writes. Only the sum is meaningful, and it is what
        ``simulate`` and the power model read.
        """
        merged = DramActivityStats()
        merged.merge(self.demand_activity)
        for bank in self.banks:
            merged.merge(bank.stats)
        return merged

    def total_refreshes(self, until: Optional[float] = None) -> int:
        """REF commands issued to all ranks by ``until`` (power model)."""
        horizon = self.end_time if until is None else until
        per_rank = self.refresh.refreshes_before(horizon)
        return per_rank * self.geometry.channels * self.geometry.ranks_per_channel

    def bus_utilization(self) -> float:
        """Mean per-channel data-bus utilization, clamped to [0, 1]."""
        return average_bus_utilization(self.buses, self.end_time)

    def result_extras(self) -> Dict[str, object]:
        """Engine-specific result extras for ``RunResult.extra``.

        Every engine reports ``total_delay_ns`` (rate-control
        mitigation cost); the queued engine adds its scheduler
        counters.
        """
        return {"total_delay_ns": self.stats.total_delay_ns}

    # ------------------------------------------------------------------
    # Observability (repro.obs)
    # ------------------------------------------------------------------

    @property
    def window_period_ns(self) -> float:
        """Tracking-window period driving the per-window recorder."""
        return self._window.period

    def obs_snapshot(self) -> Dict[str, float]:
        """Cumulative controller counters for the per-window recorder.

        Restricted to stats every engine maintains *live*: both
        engines' fused loops batch their demand/activation counters
        (``ControllerStats`` and the DRAM counters in
        ``demand_activity``) into locals and flush them after the
        trace, so only the counters updated through the feedback hooks
        (metadata traffic, victim refreshes) are trustworthy at a
        window boundary.
        """
        stats = self.stats
        return {
            "mc_meta_accesses": float(stats.meta_accesses),
            "mc_meta_line_transfers": float(stats.meta_line_transfers),
            "mc_victim_refreshes": float(stats.victim_refreshes),
        }

    def enable_observability(self, recorder, registry) -> None:
        """Swap the no-op probes for live ones (observed runs only).

        Called once at build time, before any request runs: the
        recorder snapshots the zeroed counters as its baseline, the
        window schedule's observer becomes the recorder, and the
        feedback worklist feeds a chain-length histogram. Unobserved
        controllers never run this, so their probe slots keep the
        no-op defaults — the zero-cost-when-off rule.
        """
        recorder.add_source(self.obs_snapshot)
        recorder.add_source(self.tracker.obs_snapshot)
        recorder.prime()
        self._window.observer = recorder.on_window_reset
        chain_hist = registry.histogram(
            "feedback_chain_length",
            bounds=(0, 1, 2, 4, 8, 16, 32),
            help_text="tracker-caused activations chained per slow-path"
            " event (meta accesses + victim refreshes fed back)",
        )
        self._feedback.observer = chain_hist.observe

    def publish_metrics(self, registry) -> None:
        """End-of-run stats publication (observed runs only).

        Every field of the engine's stats dataclass becomes an
        ``mc_``-prefixed counter — the queued engine's extra scheduler
        counters ride along automatically — plus the derived bus
        utilization as a gauge.
        """
        from dataclasses import fields as dataclass_fields

        for spec in dataclass_fields(self.stats):
            registry.counter(
                f"mc_{spec.name}", f"ControllerStats.{spec.name}"
            ).inc(getattr(self.stats, spec.name))
        registry.gauge(
            "mc_bus_utilization", "mean per-channel data-bus utilization"
        ).set(self.bus_utilization())
