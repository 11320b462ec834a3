"""Queued engine: FR-FCFS arbitration + write-queue drain.

The fast engine (:mod:`repro.memctrl.controller`) resolves each
request immediately in arrival order — ideal for large sweeps. This
discrete-event variant models the scheduling machinery USIMM has and
the fast path abstracts:

- per-channel **read queues** arbitrated FR-FCFS: row-buffer hits are
  served before older row misses (first-ready, first-come-first-serve);
- an explicit per-channel **write queue**: writes (demand writebacks
  and tracker metadata writes) buffer and drain either when the read
  queue is empty (opportunistic) or when the queue crosses its high
  watermark (forced, blocking reads until the low watermark) — the
  "prioritizes read requests over write requests" behaviour of
  Table 2's controller; residual writes are fully flushed at end of
  trace so activity, bus, and end-time accounting include them;
- a closed admission loop: at most ``mlp`` demand requests are
  outstanding, so added queueing latency feeds back into throughput.

Tracker integration matches the fast engine: every activation
(demand, metadata read, victim refresh) is reported; tracker metadata
reads are performed at once, at the triggering activation's time
(they bypass the read queue), while metadata writes enter the write
queue; and rate-control delays (D-CBF) are charged to the triggering
request's completion time. Construction and the reporting surface
(``activity``/``total_refreshes``/``bus_utilization``) come from
:class:`~repro.memctrl.base.BaseMemoryController`, so the DRAM power
model works identically on both engines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.dram.timing import DramGeometry, DramTiming
from repro.interfaces import ActivationTracker, MetaAccess
from repro.memctrl.base import (
    BaseMemoryController,
    ControllerStats,
    EngineRunOutcome,
)
from repro.workloads.trace import LineTotals

__all__ = ["QueuedMemoryController", "QueuedStats"]

#: A buffered write: ``(arrival, row_id, n_lines)``.
Write = Tuple[float, int, int]


@dataclass
class QueuedStats(ControllerStats):
    """Shared controller accounting plus FR-FCFS scheduler counters."""

    read_queue_peak: int = 0
    write_queue_peak: int = 0
    forced_write_drains: int = 0
    opportunistic_writes: int = 0
    row_hit_first_picks: int = 0
    flushed_writes: int = 0
    meta_reads: int = 0
    meta_writes: int = 0


class QueuedMemoryController(BaseMemoryController):
    """Discrete-event engine with explicit queues."""

    engine = "queued"
    stats_class = QueuedStats

    def __init__(
        self,
        geometry: DramGeometry,
        timing: DramTiming,
        tracker: Optional[ActivationTracker] = None,
        blast_radius: int = 2,
        write_queue_high: int = 32,
        write_queue_low: int = 8,
        count_mitigation_acts: bool = True,
        max_feedback_depth: int = 4,
    ) -> None:
        if not 0 <= write_queue_low < write_queue_high:
            raise ValueError("need 0 <= low watermark < high watermark")
        super().__init__(
            geometry,
            timing,
            tracker,
            blast_radius=blast_radius,
            count_mitigation_acts=count_mitigation_acts,
            max_feedback_depth=max_feedback_depth,
        )
        self.write_queue_high = write_queue_high
        self.write_queue_low = write_queue_low
        #: A queued read is a list ``[bank, row_id, arrival, n_lines,
        #: slot, completion]``; service fills in the completion.
        self._read_queues: List[List[list]] = [
            [] for _ in range(geometry.channels)
        ]
        self._write_queues: List[Deque[Write]] = [
            deque() for _ in range(geometry.channels)
        ]

    # ------------------------------------------------------------------
    # Closed-loop trace execution (engine protocol)
    # ------------------------------------------------------------------

    def run_trace(self, trace, mlp: int = 16) -> EngineRunOutcome:
        """Replay a trace with at most ``mlp`` outstanding requests.

        Requests are admitted in batches of up to ``mlp`` reads (the
        outstanding window), queued, then serviced by the FR-FCFS
        scheduler — so row-hit reordering among in-flight requests
        actually happens, unlike the fast engine's in-order
        resolution. After the last batch every write queue is flushed,
        so the end time and all activity stats account for writes that
        were still buffered when the trace ran out.

        Like the fast engine, this consumes the shared resolved stream
        (:meth:`~repro.memctrl.base.BaseMemoryController._resolved_stream`),
        so a ``Trace``, a chunked on-disk trace and plain 4-tuples all
        take this one loop. The stream is pulled one request at a time
        (at most ``mlp`` reads buffered), so bounded-memory sources
        stay bounded.

        One fused loop does admission, the FR-FCFS pick and the demand
        read's ``Bank.access`` (inlined). As in the fast engine's loop,
        timing scalars are hoisted, per-bank and per-bus *state* is
        re-read on every access (write drains and tracker feedback
        mutate it mid-batch), and integer counters are batched into
        locals and flushed once, and the request and line counts are the
        stream's per-chunk sums; the demand reads' DRAM counters go to
        ``demand_activity`` (DESIGN.md §9). Writes still go through
        ``Bank.access``, so they count in the banks, and
        ``total_delay_ns`` is added to in place, in the same order as
        the write path adds to it.
        """
        if mlp <= 0:
            raise ValueError("mlp must be positive")
        totals = LineTotals()
        stream = self._resolved_stream(trace, totals)
        banks = self.banks
        bank_channels = self._bank_channels
        buses = self.buses
        stats = self.stats
        read_queues = self._read_queues
        write_queues = self._write_queues
        channels = range(len(read_queues))
        write_high = self.write_queue_high
        drain_writes_to_low = self._drain_writes_to_low
        maybe_drain_writes = self._maybe_drain_writes
        window_sched = self._window
        advance_window = self._advance_window
        # ``self.tracker`` is never rebound, so the bound method stays
        # valid across window resets; a live response enters the
        # feedback worklist exactly as ``TrackerFeedback.drive`` does.
        on_activation = self.tracker.on_activation
        followups = self._feedback.drive_followups
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
        reads = 0
        misses = 0
        precharges = 0
        hit_first_picks = 0
        read_peak = stats.read_queue_peak
        end_time = self.end_time
        exhausted = False
        while not exhausted:
            # -- admission: pull requests until mlp reads are queued --
            batch = []
            batched = 0
            for gap_ns, row_id, bank_index, n_lines, is_write in stream:
                slot += 1
                if slot == mlp:
                    slot = 0
                earliest = issue + gap_ns
                start = window[slot]
                if start < earliest:
                    start = earliest
                issue = start
                if start >= next_reset:
                    advance_window(start)
                    next_reset = window_sched.next_reset
                channel = bank_channels[bank_index]
                if is_write:
                    writes = write_queues[channel]
                    writes.append((start, row_id, n_lines))
                    if len(writes) > stats.write_queue_peak:
                        stats.write_queue_peak = len(writes)
                    window[slot] = start  # writes retire into the queue
                    continue
                queue = read_queues[channel]
                request = [banks[bank_index], row_id, start, n_lines, slot, 0.0]
                queue.append(request)
                batch.append(request)
                if len(queue) > read_peak:
                    read_peak = len(queue)
                batched += 1
                if batched == mlp:
                    break
            else:
                exhausted = True
            # -- service: drain each read queue FR-FCFS, then bleed
            #    writes --
            for channel in channels:
                queue = read_queues[channel]
                now = issue
                if queue:
                    writes = write_queues[channel]
                    bus = buses[channel]
                    while queue:
                        # A forced write drain takes precedence at the
                        # high watermark.
                        if len(writes) >= write_high:
                            drain_writes_to_low(channel, now)
                        # First ready: the oldest row hit, else the
                        # oldest request.
                        picked = 0
                        for request in queue:
                            if request[0].open_row == request[1]:
                                break
                            picked += 1
                        else:
                            picked = 0
                        if picked:
                            hit_first_picks += 1
                        request = queue.pop(picked)
                        bank, row_id, arrival, n_lines, _, _ = request
                        # -- bank.access(max(arrival, now), row_id,
                        #    n_lines, bus), inlined (see Bank.access) --
                        at = arrival if arrival >= now else now
                        # No negative clamp: arrival >= window[slot] >= 0.
                        offset = at % t_refi
                        t = at + (t_rfc - offset) if offset < t_rfc else at
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
                        free_at = bus.free_at
                        xfer_start = first_data if first_data >= free_at else free_at
                        duration = n_lines * t_burst
                        completion = xfer_start + duration
                        bus.free_at = completion
                        bus.busy_time += duration
                        # -- end of the inlined bank access --
                        if activated:
                            # -- _feedback.drive(row_id, act_at, self),
                            #    inlined --
                            response = on_activation(row_id)
                            if response is not None:
                                delay = followups(response, act_at, self)
                                if delay:
                                    completion += delay
                                    stats.total_delay_ns += delay
                        request[5] = completion
                        if completion > end_time:
                            end_time = completion
                        now = completion
                if write_queues[channel]:
                    maybe_drain_writes(channel, now)
            # -- retire the batch in admission order --
            for request in batch:
                completion = request[5]
                window[request[4]] = completion
                total_latency += completion - request[2]
            reads += batched
        count = totals.requests
        stats.demand_accesses += count
        stats.demand_line_transfers += totals.lines
        stats.tracker_activations += misses
        stats.read_queue_peak = read_peak
        stats.row_hit_first_picks += hit_first_picks
        activity = self.demand_activity
        activity.row_buffer_hits += reads - misses
        activity.row_buffer_misses += misses
        activity.activations += misses
        activity.precharges += precharges
        # Every admitted read is served before the stream is pulled
        # again, so the reads' lines are the stream's non-write lines.
        activity.read_lines += totals.lines - totals.write_lines
        # Drained writes raised ``self.end_time`` themselves; the reads'
        # maximum and the final window join it here (max is exact and
        # order-free).
        if end_time > self.end_time:
            self.end_time = end_time
        end = max(window) if count else 0.0
        if end > self.end_time:
            self.end_time = end
        self._flush_write_queues(self.end_time)
        return EngineRunOutcome(
            end_time_ns=self.end_time,
            requests=count,
            total_latency_ns=total_latency,
        )

    # ------------------------------------------------------------------
    # Write queue
    # ------------------------------------------------------------------

    def _maybe_drain_writes(self, channel: int, now: float) -> None:
        """Bleed writes once the channel's read queue has been served."""
        writes = self._write_queues[channel]
        if len(writes) >= self.write_queue_high:
            self._drain_writes_to_low(channel, now)
        else:
            # Opportunistic: bleed a few writes while reads are absent.
            for _ in range(min(4, len(writes))):
                self._perform_write(channel, writes.popleft(), now)
                self.stats.opportunistic_writes += 1

    def _drain_writes_to_low(self, channel: int, now: float) -> None:
        writes = self._write_queues[channel]
        self.stats.forced_write_drains += 1
        while len(writes) > self.write_queue_low:
            self._perform_write(channel, writes.popleft(), now)

    def _flush_write_queues(self, now: float) -> None:
        """Drain every residual write at end of trace.

        Writes "retire into the queue" during execution; without the
        final drain they would never touch a bank, understating end
        time, bus utilization, and metadata-write activations. Feedback
        from the flush (metadata writes caused by write activations)
        lands back in the queues, possibly on a channel already walked,
        so the walk repeats until every queue is empty.
        """
        queues = self._write_queues
        while any(queues):
            for channel, writes in enumerate(queues):
                while writes:
                    self._perform_write(channel, writes.popleft(), now)
                    self.stats.flushed_writes += 1

    def _perform_write(self, channel: int, write: Write, now: float) -> None:
        arrival, row_id, n_lines = write
        result = self.banks[row_id // self._rows_per_bank].access(
            max(arrival, now),
            row_id,
            n_lines,
            self.buses[channel],
            is_write=True,
        )
        completion = result.completion
        if result.activated:
            delay = self._report_activation(row_id, result.act_time)
            if delay:
                completion += delay
                self.stats.total_delay_ns += delay
        if completion > self.end_time:
            self.end_time = completion

    # FeedbackHandler hooks -------------------------------------------

    def perform_meta_access(self, meta: MetaAccess, at: float) -> bool:
        channel = self._channel_of(meta.row_id)
        self.stats.meta_accesses += 1
        self.stats.meta_line_transfers += meta.n_lines
        if meta.is_write:
            self.stats.meta_writes += 1
            writes = self._write_queues[channel]
            writes.append((at, meta.row_id, meta.n_lines))
            if len(writes) > self.stats.write_queue_peak:
                self.stats.write_queue_peak = len(writes)
            return False
        self.stats.meta_reads += 1
        bank_index = meta.row_id // self._rows_per_bank
        result = self.banks[bank_index].access(
            at,
            meta.row_id,
            meta.n_lines,
            self.buses[channel],
            False,
        )
        return result.activated

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def result_extras(self):
        extras = super().result_extras()
        extras.update(
            read_queue_peak=self.stats.read_queue_peak,
            write_queue_peak=self.stats.write_queue_peak,
            forced_write_drains=self.stats.forced_write_drains,
            opportunistic_writes=self.stats.opportunistic_writes,
            row_hit_first_picks=self.stats.row_hit_first_picks,
            flushed_writes=self.stats.flushed_writes,
            meta_reads=self.stats.meta_reads,
            meta_writes=self.stats.meta_writes,
        )
        return extras
