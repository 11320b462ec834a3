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
from typing import Callable, Dict, Iterable, Optional, Tuple

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

    Both engines return this shape (the fast engine via the in-order
    window loop, the queued engine from its scheduler), so one
    ``simulate`` path packages either into a ``RunResult``.
    """

    end_time_ns: float
    requests: int
    total_latency_ns: float

    @property
    def average_latency_ns(self) -> float:
        return self.total_latency_ns / self.requests if self.requests else 0.0


def drive_in_order(
    trace: Iterable[Tuple[float, int, int, bool]],
    access: Callable[[float, int, int, bool], float],
    mlp: int,
) -> EngineRunOutcome:
    """Replay a trace in order with a bounded in-flight window.

    Requests issue in program order, each no earlier than its
    program-driven arrival (previous issue + gap) and no earlier than
    the completion of the request ``mlp`` positions earlier (the
    window slot it reuses). This is the limited-MLP core model shared
    by the fast engine and :class:`repro.cpu.core.LimitedMlpCore`.

    ``trace`` is consumed strictly one tuple at a time with running
    state only, so any bounded-memory
    :class:`~repro.workloads.streaming.TraceSource` stream (chunked
    on-disk traces, external text readers) runs in chunk-sized peak
    memory here.
    """
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
        done = access(start, row_id, n_lines, is_write)
        window[slot] = done
        total_latency += done - start
        count += 1
    end = max(window) if count else 0.0
    return EngineRunOutcome(
        end_time_ns=end, requests=count, total_latency_ns=total_latency
    )


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
        self._window = WindowResetSchedule(timing, self.tracker)
        self.end_time = 0.0

    # ------------------------------------------------------------------
    # Engine protocol
    # ------------------------------------------------------------------

    def run_trace(self, trace, mlp: int = 16) -> EngineRunOutcome:
        """Replay one trace with at most ``mlp`` outstanding requests."""
        raise NotImplementedError

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

        The fast engine's fused loop adds its demand counters to
        ``demand_activity`` once per trace, so its ``Bank.stats`` hold
        only feedback traffic (metadata accesses, victim refreshes);
        paths through :meth:`Bank.access` count in the banks. Only the
        sum is meaningful, and it is what ``simulate`` and the power
        model read.
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

        Restricted to stats every engine maintains *live*: the fast
        engine's fused loop batches its demand/activation counters
        (``ControllerStats`` and the DRAM counters in
        ``demand_activity``) into locals and flushes them after the
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
