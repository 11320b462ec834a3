"""Fast engine: in-order resolution + tracker hook + mitigation.

This is the component Hydra lives in (Figure 3). Responsibilities:

- route each demand access to its bank and channel bus and resolve its
  timing (the event-driven equivalent of USIMM's scheduler);
- consult the activation tracker on **every** activation — demand,
  metadata, or victim refresh (§5.2.1 requires mitigation-induced
  activations to be counted too);
- perform the metadata traffic trackers request (RCT/CRA counter line
  reads and writebacks) — off the demand critical path, but consuming
  bank row-cycles and bus slots, which is precisely how tracking
  slowdown arises (§5.3);
- execute victim-refresh mitigations through the blast-radius policy;
- reset the tracker every tracking window (64 ms, or window/2 for
  D-CBF's filter rotation).

Construction, the tracker-feedback loop, and the reporting surface are
inherited from :class:`~repro.memctrl.base.BaseMemoryController`; this
module adds only the in-order scheduling mechanism. The queued
FR-FCFS engine lives in :mod:`repro.memctrl.queued`.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.timing import DramGeometry, DramTiming
from repro.interfaces import ActivationTracker, MetaAccess
from repro.memctrl.base import (
    BaseMemoryController,
    ControllerStats,
    EngineRunOutcome,
    drive_in_order,
)

__all__ = ["ControllerStats", "MemoryController"]


class MemoryController(BaseMemoryController):
    """Two-channel DDR4 controller with in-order request resolution."""

    engine = "fast"

    def __init__(
        self,
        geometry: DramGeometry,
        timing: DramTiming,
        tracker: Optional[ActivationTracker] = None,
        blast_radius: int = 2,
        count_mitigation_acts: bool = True,
        defer_meta_writes: bool = True,
        max_feedback_depth: int = 4,
    ) -> None:
        super().__init__(
            geometry,
            timing,
            tracker,
            blast_radius=blast_radius,
            count_mitigation_acts=count_mitigation_acts,
            max_feedback_depth=max_feedback_depth,
        )
        #: Writes sit in the write queue and drain with lower priority
        #: than reads (USIMM prioritizes reads, Table 2 text). Deferred
        #: writes cost data-bus slots but their bank occupancy overlaps
        #: idle periods, so they are modelled as bus-only traffic.
        self.defer_meta_writes = defer_meta_writes

    # ------------------------------------------------------------------
    # Engine protocol
    # ------------------------------------------------------------------

    def run_trace(self, trace, mlp: int = 16) -> EngineRunOutcome:
        """Replay a trace through the limited-MLP in-order window.

        Any :class:`~repro.workloads.streaming.TraceSource` exposing
        ``resolved_stream`` — an in-RAM
        :class:`~repro.workloads.trace.Trace`, a chunked on-disk
        trace, or an external-format reader — takes the pre-resolved
        fast loop (bank/channel indices vectorized per chunk in numpy,
        the per-request ``access`` body inlined), consuming the stream
        with running statistics so peak memory is bounded by the
        source's chunk size. Any other iterable of
        ``(gap_ns, row_id, n_lines, is_write)`` tuples falls back to
        the generic :func:`drive_in_order` path. All paths produce
        bit-identical results — the fast loop performs the exact same
        arithmetic in the exact same order regardless of how the
        stream is backed.
        """
        resolved = getattr(trace, "resolved_stream", None)
        if resolved is not None:
            stream = resolved(self._rows_per_bank, self._banks_per_channel)
            return self._run_resolved_stream(stream, mlp)
        return drive_in_order(trace, self.access, mlp)

    def _run_resolved_stream(self, stream, mlp: int) -> EngineRunOutcome:
        """The hot loop: ``drive_in_order`` + ``access`` fused.

        Everything the per-request path touches is hoisted into locals.
        Per-request stats are batched into local counters and flushed
        once after the loop: the controller stats, and the demand DRAM
        counters, which go to ``demand_activity`` rather than each
        ``Bank.stats`` (hits are ``count - misses``, activations equal
        misses, read lines are line transfers minus write lines). These
        are pure integer sums, and the float ``total_delay_ns``
        accumulates in the same order it would through the instance
        attribute, so results stay bit-identical. ``self.end_time`` is
        taken from the final window: a slot's completion never
        decreases (the next request in it starts no earlier, and every
        timing and delay is non-negative), so the window's maximum is
        the maximum over all completions.
        """
        if mlp <= 0:
            raise ValueError("mlp must be positive")
        banks = self.banks
        buses = self.buses
        stats = self.stats
        window_sched = self._window
        advance_window = self._advance_window
        # The feedback fast path (tracker answers None, no follow-up
        # work) is inlined below; only a live response enters the
        # worklist machinery. ``self.tracker`` is never rebound, so the
        # bound method stays valid across window resets.
        on_activation = self.tracker.on_activation
        followups = self._feedback.drive_followups
        # Timing scalars are shared by every bank and bus (all built
        # from the same DramTiming), so they hoist out of the loop;
        # per-bank/per-bus *state* is re-read from the objects each
        # iteration because feedback work (victim refreshes, metadata
        # accesses) mutates it through the normal methods mid-loop.
        timing = self.timing
        t_refi = timing.t_refi
        t_rfc = timing.t_rfc
        t_rc = timing.t_rc
        t_rp = timing.t_rp
        t_rcd = timing.t_rcd
        t_cas = timing.t_cas
        t_burst = timing.t_burst
        next_reset = window_sched.next_reset
        window = [0.0] * mlp
        issue = 0.0
        total_latency = 0.0
        count = 0
        total_delay_ns = stats.total_delay_ns
        demand_line_transfers = 0
        misses = 0
        precharges = 0
        write_lines = 0
        for gap_ns, row_id, local_row, bank_index, channel, n_lines, is_write in stream:
            earliest = issue + gap_ns
            slot = count % mlp
            start = window[slot]
            if start < earliest:
                start = earliest
            issue = start
            # -- access(start, row_id, n_lines, is_write), inlined --
            if start >= next_reset:
                advance_window(start)
                next_reset = window_sched.next_reset
            # -- bank.access(start, local_row, n_lines, bus, is_write),
            #    inlined (see Bank.access for the annotated original) --
            bank = banks[bank_index]
            # No negative clamp: start >= window[slot] >= 0.
            offset = start % t_refi
            t = start + (t_rfc - offset) if offset < t_rfc else start
            if bank.open_row == local_row:
                row_ready = bank._row_ready_at
                col_start = t if t >= row_ready else row_ready
                activated = False
            else:
                misses += 1
                next_act = bank._next_act_at
                act_at = t if t >= next_act else next_act
                if bank.open_row is not None:
                    row_ready = bank._row_ready_at
                    if row_ready > act_at:
                        act_at = row_ready
                    act_at += t_rp
                    precharges += 1
                offset = act_at % t_refi
                if offset < t_rfc:
                    act_at += t_rfc - offset
                act_window = bank._act_window
                if act_window is not None:
                    act_at = act_window.reserve(act_at)
                bank.open_row = local_row
                bank._next_act_at = act_at + t_rc
                col_start = bank._row_ready_at = act_at + t_rcd
                activated = True
            first_data = col_start + t_cas
            bus = buses[channel]
            free_at = bus.free_at
            xfer_start = first_data if first_data >= free_at else free_at
            duration = n_lines * t_burst
            completion = xfer_start + duration
            bus.free_at = completion
            bus.busy_time += duration
            if is_write:
                write_lines += n_lines
            # -- end of the inlined bank access --
            demand_line_transfers += n_lines
            if activated:
                # -- _feedback.drive(row_id, act_at, self), inlined --
                response = on_activation(row_id)
                if response is not None:
                    delay = followups(response, act_at, self)
                    if delay:
                        completion += delay
                        total_delay_ns += delay
            # -- back in the drive_in_order window bookkeeping --
            window[slot] = completion
            total_latency += completion - start
            count += 1
        stats.demand_accesses += count
        stats.demand_line_transfers += demand_line_transfers
        stats.tracker_activations += misses
        stats.total_delay_ns = total_delay_ns
        activity = self.demand_activity
        activity.row_buffer_hits += count - misses
        activity.row_buffer_misses += misses
        activity.activations += misses
        activity.precharges += precharges
        activity.write_lines += write_lines
        activity.read_lines += demand_line_transfers - write_lines
        end = max(window) if count else 0.0
        if end > self.end_time:
            self.end_time = end
        return EngineRunOutcome(
            end_time_ns=end, requests=count, total_latency_ns=total_latency
        )

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------

    def access(
        self, at: float, row_id: int, n_lines: int = 1, is_write: bool = False
    ) -> float:
        """One demand access of ``n_lines`` lines; returns completion time."""
        if at >= self._window.next_reset:  # scalar form of _window.due(at)
            self._advance_window(at)
        bank_index = row_id // self._rows_per_bank
        bank = self.banks[bank_index]
        bus = self.buses[bank_index // self._banks_per_channel]
        result = bank.access(
            at, row_id % self._rows_per_bank, n_lines, bus, is_write
        )
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

    # FeedbackHandler hooks -------------------------------------------

    def perform_meta_access(self, meta: MetaAccess, at: float) -> bool:
        meta_bank_index = meta.row_id // self._rows_per_bank
        meta_bus = self.buses[meta_bank_index // self._banks_per_channel]
        self.stats.meta_accesses += 1
        self.stats.meta_line_transfers += meta.n_lines
        if meta.is_write and self.defer_meta_writes:
            meta_bus.transfer(at, meta.n_lines)
            return False
        meta_result = self.banks[meta_bank_index].access(
            at,
            meta.row_id % self._rows_per_bank,
            meta.n_lines,
            meta_bus,
            meta.is_write,
        )
        return meta_result.activated
