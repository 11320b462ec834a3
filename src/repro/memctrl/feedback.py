"""Tracker machinery shared by both memory controllers.

The fast controller (:mod:`repro.memctrl.controller`) and the queued
FR-FCFS controller (:mod:`repro.memctrl.queued`) integrate trackers
identically in *behaviour* — every activation is reported, tracker
responses trigger metadata traffic and victim refreshes, and those
follow-up activations are fed back (§5.2.1/§5.2.2) — while differing
in *mechanism* (immediate resolution vs queues). This module holds the
behaviour once:

- :class:`TrackerFeedback` drives the bounded feedback worklist, with
  the controller supplying how a metadata access or victim refresh is
  physically performed;
- :class:`WindowResetSchedule` owns the tracking-window reset cadence,
  including the per-tracker ``reset_divisor`` (D-CBF rotates its
  filters every half window).
"""

from __future__ import annotations

from repro.dram.timing import DramTiming
from repro.interfaces import ActivationTracker, MetaAccess
from repro.memctrl.mitigation import VictimRefreshPolicy
from repro.obs.metrics import noop


class FeedbackHandler:
    """What a controller must provide to drive tracker feedback.

    Controllers implement these three hooks; :class:`TrackerFeedback`
    never touches banks, buses, queues, or stats directly.
    """

    def on_tracker_activation(self, row_id: int) -> None:
        """One activation is about to be reported to the tracker."""

    def perform_meta_access(self, meta: MetaAccess, at: float) -> bool:
        """Execute one tracker metadata access.

        Returns True when the access activated a row *now* (and should
        therefore be fed back into the tracker); deferred or queued
        accesses return False and are accounted when they drain.
        """
        raise NotImplementedError

    def perform_victim_refresh(self, victim_row: int, at: float) -> bool:
        """Refresh one victim row.

        Returns True when the refresh-induced activation should be fed
        back into the tracker (§5.2.1 mitigation-act counting).
        """
        raise NotImplementedError


class TrackerFeedback:
    """Bounded worklist feeding tracker-caused activations back.

    Metadata accesses and victim refreshes requested by the tracker
    are executed through the handler; any activations *they* cause are
    re-reported, so mitigation-induced hammering (Half-Double, §5.2.1)
    and metadata-row hammering (§5.2.2) are both visible to the
    tracker. The worklist is naturally bounded: each feedback
    activation needs ~T_H prior activations to trigger further work,
    and ``max_feedback_depth`` caps pathological chains (depth 4
    covers Half-Double-style second-ring effects with margin).
    """

    __slots__ = ("tracker", "policy", "max_depth", "observer")

    def __init__(
        self,
        tracker: ActivationTracker,
        policy: VictimRefreshPolicy,
        max_feedback_depth: int = 4,
    ) -> None:
        if max_feedback_depth < 1:
            raise ValueError("max_feedback_depth must be >= 1")
        self.tracker = tracker
        self.policy = policy
        self.max_depth = max_feedback_depth
        #: Observability probe: called with the number of feedback
        #: activations a slow-path event chained (``repro.obs`` points
        #: it at a histogram's ``observe``). Resolved once at build
        #: time; the no-op default sits outside the fast path, which
        #: never reaches :meth:`drive_followups` at all.
        self.observer = noop

    def drive(
        self, row_id: int, at: float, handler: FeedbackHandler
    ) -> float:
        """Report one activation and run all follow-up work.

        Returns the total activation delay (ns) the tracker requested
        (rate-control mitigations such as D-CBF's).

        The overwhelmingly common case — the tracker answers ``None``
        — is handled without building a worklist at all; the slow path
        walks the same breadth-first order the original deque-based
        loop produced (a list with a read cursor, appended in the same
        sequence, is FIFO too).
        """
        handler.on_tracker_activation(row_id)
        response = self.tracker.on_activation(row_id)
        if response is None:
            return 0.0
        return self.drive_followups(response, at, handler)

    def drive_followups(
        self, response, at: float, handler: FeedbackHandler
    ) -> float:
        """Slow path: run the feedback worklist for a live response.

        ``response`` belongs to the depth-0 activation ``drive``
        already reported. The loop performs its requested work, then
        scans the worklist for the next activation that produces a
        response — the exact handler-call order of the original
        deque-based BFS (a cursor-indexed list is FIFO too, without
        the per-activation deque allocation). Bound methods are looked
        up once per call, and the victim policy only for a response
        that mitigates.
        """
        on_activation = self.tracker.on_activation
        on_tracker_activation = handler.on_tracker_activation
        perform_meta_access = handler.perform_meta_access
        max_depth = self.max_depth
        delay = 0.0 + response.delay_ns
        pending = []  # (row, depth) worklist, consumed via cursor
        push = pending.append
        cursor = 0
        depth = 0
        while True:
            requeue = depth < max_depth
            for meta in response.meta_accesses:
                if perform_meta_access(meta, at) and requeue:
                    push((meta.row_id, depth + 1))
            if response.mitigate_rows:
                victims_of = self.policy.victims_of
                perform_victim_refresh = handler.perform_victim_refresh
                for aggressor in response.mitigate_rows:
                    for victim in victims_of(aggressor):
                        if perform_victim_refresh(victim, at) and requeue:
                            push((victim, depth + 1))
            response = None
            while cursor < len(pending):
                row, depth = pending[cursor]
                cursor += 1
                on_tracker_activation(row)
                response = on_activation(row)
                if response is not None:
                    delay += response.delay_ns
                    break
            if response is None:
                self.observer(cursor)
                return delay


class WindowResetSchedule:
    """Tracking-window reset cadence (64 ms, or window/divisor).

    Trackers advertising ``reset_divisor = N`` are reset N times per
    refresh window (D-CBF's filter rotation uses 2).
    """

    __slots__ = ("period", "next_reset", "observer")

    def __init__(self, timing: DramTiming, tracker: ActivationTracker) -> None:
        divisor = getattr(tracker, "reset_divisor", 1)
        self.period = timing.refresh_window / divisor
        self.next_reset = self.period
        #: Observability probe: called with each window boundary (ns)
        #: *before* the tracker resets, so the per-window recorder
        #: samples the closing window's state intact. Controllers that
        #: cache ``next_reset`` in their hot loop only reach this on
        #: the (rare) reset path, so the no-op default costs nothing
        #: per activation.
        self.observer = noop

    def due(self, at: float) -> bool:
        return at >= self.next_reset

    def advance(self, at: float, tracker: ActivationTracker) -> int:
        """Fire every reset scheduled at or before ``at``; count them."""
        fired = 0
        while at >= self.next_reset:
            self.observer(self.next_reset)
            tracker.on_window_reset()
            self.next_reset += self.period
            fired += 1
        return fired
