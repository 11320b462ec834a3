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

from math import inf, ulp

from repro.interfaces import MetaAccess
from repro.memctrl.base import (
    BaseMemoryController,
    ControllerStats,
    EngineRunOutcome,
)
from repro.workloads.trace import LineTotals

__all__ = ["ControllerStats", "MemoryController"]


class MemoryController(BaseMemoryController):
    """Two-channel DDR4 controller with in-order request resolution."""

    engine = "fast"

    # ------------------------------------------------------------------
    # Engine protocol
    # ------------------------------------------------------------------

    def run_trace(self, trace, mlp: int = 16) -> EngineRunOutcome:
        """Replay a trace through the limited-MLP in-order window.

        Requests issue in program order, each no earlier than its
        program-driven arrival (previous issue + gap) and no earlier
        than the completion of the request ``mlp`` positions earlier
        (the window slot it reuses), and each is resolved against its
        bank and channel bus at issue. The loop consumes the shared
        resolved stream
        (:meth:`~repro.memctrl.base.BaseMemoryController._resolved_stream`),
        so a ``Trace``, a chunked on-disk trace and plain 4-tuples all
        take it, with running statistics only: peak memory is bounded
        by the source's chunk size.

        Everything the loop touches is hoisted into locals, and the
        demand access (``Bank.access`` and the tracker report) is
        inlined. Per-request stats are batched into local counters and
        flushed once after the loop: the controller stats, and the
        demand DRAM counters, which go to ``demand_activity`` rather
        than each ``Bank.stats`` (hits are ``count - misses``,
        activations equal misses). The request and line counts are the
        stream's per-chunk sums
        (:class:`~repro.workloads.trace.LineTotals`), so the loop keeps
        only a wrapping window slot. These are pure integer sums, and
        the float ``total_delay_ns`` accumulates in request order, so
        results stay bit-identical (DESIGN.md §9). The refresh-blackout
        test skips its ``%`` for a time inside a stretch an earlier
        exact ``%`` proved clear of the blackout, and runs it unchanged
        otherwise.
        ``self.end_time`` is taken from the final window: a slot's
        completion never decreases (the next request in it starts no
        earlier, and every timing and delay is non-negative), so the
        window's maximum is the maximum over all completions.
        """
        if mlp <= 0:
            raise ValueError("mlp must be positive")
        banks = self.banks
        bank_buses = self._bank_buses
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
        # The window slot the request reuses, advanced round-robin.
        slot = -1
        issue = 0.0
        total_latency = 0.0
        total_delay_ns = stats.total_delay_ns
        misses = 0
        precharges = 0
        # [clear_lo, clear_hi]: a stretch of the current tREFI interval
        # that an exact ``%`` has shown to lie past its tRFC blackout,
        # so a time inside it needs no ``%`` (DESIGN.md §9). Empty
        # (clear_hi = -inf) at first and after a blackout hit.
        clear_lo = 0.0
        clear_hi = -inf
        totals = LineTotals()
        stream = self._resolved_stream(trace, totals)
        for gap_ns, row_id, bank_index, n_lines, is_write in stream:
            earliest = issue + gap_ns
            slot += 1
            if slot == mlp:
                slot = 0
            start = window[slot]
            if start < earliest:
                start = earliest
            issue = start
            if start >= next_reset:
                advance_window(start)
                next_reset = window_sched.next_reset
            # -- bank.access(start, row_id, n_lines, bus, is_write),
            #    inlined (see Bank.access for the annotated original) --
            bank = banks[bank_index]
            # No negative clamp: start >= window[slot] >= 0.
            if clear_lo <= start <= clear_hi:
                t = start
            else:
                offset = start % t_refi
                if offset < t_rfc:
                    t = start + (t_rfc - offset)
                    clear_hi = -inf
                else:
                    t = start
                    if 0.0 <= start < inf:
                        # ``%`` is exact for a finite start >= 0, and the
                        # next REF is at start + (t_refi - offset): the
                        # rounded sum is within 1.5 of its ulps of it,
                        # so 4 ulps below the sum lies before the REF.
                        clear_lo = start
                        clear_hi = start + (t_refi - offset)
                        clear_hi -= 4 * ulp(clear_hi)
                    else:
                        clear_hi = -inf
            if bank.open_row == row_id:
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
                # act_at >= t >= clear_lo whenever the stretch is not
                # empty, so one bound decides.
                if act_at > clear_hi:
                    offset = act_at % t_refi
                    if offset < t_rfc:
                        act_at += t_rfc - offset
                act_window = bank._act_window
                if act_window is not None:
                    act_at = act_window.reserve(act_at)
                bank.open_row = row_id
                bank._next_act_at = act_at + t_rc
                col_start = bank._row_ready_at = act_at + t_rcd
                activated = True
            first_data = col_start + t_cas
            bus = bank_buses[bank_index]
            free_at = bus.free_at
            xfer_start = first_data if first_data >= free_at else free_at
            duration = n_lines * t_burst
            completion = xfer_start + duration
            bus.free_at = completion
            bus.busy_time += duration
            # -- end of the inlined bank access --
            if activated:
                # -- _feedback.drive(row_id, act_at, self), inlined --
                response = on_activation(row_id)
                if response is not None:
                    delay = followups(response, act_at, self)
                    if delay:
                        completion += delay
                        total_delay_ns += delay
            window[slot] = completion
            total_latency += completion - start
        count = totals.requests
        stats.demand_accesses += count
        stats.demand_line_transfers += totals.lines
        stats.tracker_activations += misses
        stats.total_delay_ns = total_delay_ns
        activity = self.demand_activity
        activity.row_buffer_hits += count - misses
        activity.row_buffer_misses += misses
        activity.activations += misses
        activity.precharges += precharges
        activity.write_lines += totals.write_lines
        activity.read_lines += totals.lines - totals.write_lines
        end = max(window) if count else 0.0
        if end > self.end_time:
            self.end_time = end
        return EngineRunOutcome(
            end_time_ns=end, requests=count, total_latency_ns=total_latency
        )

    # FeedbackHandler hooks -------------------------------------------

    def perform_meta_access(self, meta: MetaAccess, at: float) -> bool:
        row_id, n_lines, is_write = meta
        bank_index = row_id // self._rows_per_bank
        bus = self._bank_buses[bank_index]
        stats = self.stats
        stats.meta_accesses += 1
        stats.meta_line_transfers += n_lines
        if is_write:
            # Writes sit in the write queue and drain with lower
            # priority than reads (USIMM prioritizes reads, Table 2
            # text): they cost data-bus slots, but their bank occupancy
            # overlaps idle periods, so they are bus-only traffic.
            bus.transfer(at, n_lines)
            return False
        return self.banks[bank_index].access(
            at, row_id, n_lines, bus, False
        ).activated
