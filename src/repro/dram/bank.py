"""Event-driven DRAM bank, channel-bus, and refresh timing models.

Rather than stepping a clock, every structure tracks the *times* at
which it next becomes available. A memory access is resolved in O(1):
the bank computes when the activate/column commands may legally issue
(honouring tRC/tRCD/tRP and the rank's refresh blackouts), then the
shared channel data bus serializes the burst transfers. This is the
standard technique for fast bank-accurate (not cycle-accurate) DRAM
simulation and preserves exactly the effects the Hydra evaluation
depends on: bank row-cycle occupancy from extra activations and data
bus pressure from extra metadata line transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.dram.timing import DramTiming


@dataclass
class DramActivityStats:
    """Command/activity counts used by the power model and reports."""

    activations: int = 0
    precharges: int = 0
    read_lines: int = 0
    write_lines: int = 0
    row_buffer_hits: int = 0
    row_buffer_misses: int = 0

    def merge(self, other: "DramActivityStats") -> None:
        self.activations += other.activations
        self.precharges += other.precharges
        self.read_lines += other.read_lines
        self.write_lines += other.write_lines
        self.row_buffer_hits += other.row_buffer_hits
        self.row_buffer_misses += other.row_buffer_misses

    @property
    def total_lines(self) -> int:
        return self.read_lines + self.write_lines


class RefreshTimeline:
    """Per-rank all-bank refresh: one REF every tREFI, lasting tRFC.

    The blackout is modelled at the start of every tREFI interval;
    :meth:`adjust` pushes a command time out of any blackout it lands
    in. Deterministic and O(1).
    """

    def __init__(self, timing: DramTiming) -> None:
        self._t_refi = timing.t_refi
        self._t_rfc = timing.t_rfc

    def adjust(self, at: float) -> float:
        """Earliest time >= ``at`` that is outside a refresh blackout."""
        if at < 0:
            at = 0.0
        offset = at % self._t_refi
        if offset < self._t_rfc:
            return at + (self._t_rfc - offset)
        return at

    def refreshes_before(self, at: float) -> int:
        """Number of REF commands issued in [0, at)."""
        if at <= 0:
            return 0
        return int(at // self._t_refi)


class RankActWindow:
    """Rank-level activation constraints: tFAW and tRRD.

    tFAW: at most 4 ACTs per rank in any tFAW window. tRRD: minimum
    spacing between consecutive ACTs on a rank (any banks). Shared by
    all banks of the rank. Each constraint is disabled at 0.
    """

    __slots__ = ("t_faw", "t_rrd", "_recent", "_last_act")

    WINDOW_ACTS = 4

    def __init__(self, t_faw: float, t_rrd: float = 0.0) -> None:
        if t_faw < 0 or t_rrd < 0:
            raise ValueError("timings must be non-negative")
        self.t_faw = t_faw
        self.t_rrd = t_rrd
        self._recent: list = []
        self._last_act: float = float("-inf")

    def constrain(self, at: float) -> float:
        """Earliest time >= ``at`` an ACT may issue on this rank."""
        if self.t_rrd > 0:
            earliest = self._last_act + self.t_rrd
            if earliest > at:
                at = earliest
        if self.t_faw > 0 and len(self._recent) >= self.WINDOW_ACTS:
            earliest = self._recent[-self.WINDOW_ACTS] + self.t_faw
            if earliest > at:
                at = earliest
        return at

    def record(self, act_time: float) -> None:
        if self.t_rrd > 0 and act_time > self._last_act:
            self._last_act = act_time
        if self.t_faw <= 0:
            return
        self._recent.append(act_time)
        if len(self._recent) > self.WINDOW_ACTS:
            del self._recent[: -self.WINDOW_ACTS]

    def reserve(self, at: float) -> float:
        """``constrain`` + ``record`` fused into one call (hot path).

        Every ACT performs both; fusing them saves a method call per
        activation while keeping results identical to calling the two
        primitives in sequence.
        """
        t_rrd = self.t_rrd
        t_faw = self.t_faw
        recent = self._recent
        window_acts = self.WINDOW_ACTS
        if t_rrd > 0:
            earliest = self._last_act + t_rrd
            if earliest > at:
                at = earliest
        if t_faw > 0 and len(recent) >= window_acts:
            earliest = recent[-window_acts] + t_faw
            if earliest > at:
                at = earliest
        if t_rrd > 0 and at > self._last_act:
            self._last_act = at
        if t_faw > 0:
            recent.append(at)
            if len(recent) > window_acts:
                del recent[:-window_acts]
        return at


class ChannelBus:
    """Shared data bus of one channel: serializes 64 B burst transfers."""

    def __init__(self, timing: DramTiming) -> None:
        self._t_burst = timing.t_burst
        self.free_at: float = 0.0
        self.busy_time: float = 0.0

    def transfer(self, earliest: float, n_lines: int) -> float:
        """Occupy the bus for ``n_lines`` back-to-back bursts.

        Returns the completion time of the last beat.
        """
        if n_lines <= 0:
            return earliest
        start = max(earliest, self.free_at)
        duration = n_lines * self._t_burst
        self.free_at = start + duration
        self.busy_time += duration
        return self.free_at

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


def average_bus_utilization(buses, elapsed: float) -> float:
    """Mean clamped utilization across channels.

    The single bus-utilization implementation every reporter uses
    (per-bus clamping via :meth:`ChannelBus.utilization`, so a burst
    that nominally overruns the elapsed window cannot report > 100%).
    """
    buses = list(buses)
    if elapsed <= 0 or not buses:
        return 0.0
    return sum(bus.utilization(elapsed) for bus in buses) / len(buses)


class AccessResult(NamedTuple):
    """Timing outcome of one row-level access.

    A NamedTuple rather than a dataclass: one is allocated per
    simulated request, and tuple construction is measurably cheaper.
    """

    #: When the access's data transfer completed (request is done).
    completion: float
    #: Whether an activate was needed (row-buffer miss).
    activated: bool
    #: Time at which the activate (if any) was issued.
    act_time: float


class Bank:
    """One DRAM bank: open-row state plus next-command availability.

    ``open_row`` is the global row id of the open row, or ``None``. A
    bank only ever compares it against rows of its own, and a global id
    names one row of a bank as uniquely as the bank-local index does,
    so callers pass the global id and compute no ``%``.
    """

    def __init__(
        self,
        timing: DramTiming,
        refresh: RefreshTimeline,
        act_window: Optional["RankActWindow"] = None,
    ) -> None:
        self._timing = timing
        self._refresh = refresh
        self._act_window = act_window
        self.open_row: Optional[int] = None
        #: Earliest time the next ACT may issue (last ACT + tRC).
        self._next_act_at: float = 0.0
        #: Time at which the currently open row becomes column-accessible.
        self._row_ready_at: float = 0.0
        self.stats = DramActivityStats()
        # Scalar copies of every timing the per-request path touches,
        # so ``access`` reads plain instance floats instead of chasing
        # through the timing/refresh objects on each of the millions of
        # calls a sweep makes.
        self._t_rc = timing.t_rc
        self._t_rp = timing.t_rp
        self._t_rcd = timing.t_rcd
        self._t_cas = timing.t_cas
        self._t_refi = timing.t_refi
        self._t_rfc = timing.t_rfc

    def access(
        self,
        at: float,
        row: int,
        n_lines: int,
        bus: ChannelBus,
        is_write: bool = False,
    ) -> AccessResult:
        """Perform an access of ``n_lines`` 64 B lines within ``row``,
        the global id of a row of this bank.

        Returns timing info; updates bank state and activity stats.
        The body inlines :meth:`RefreshTimeline.adjust` and
        :meth:`ChannelBus.transfer` (same module, identical
        arithmetic): this is the innermost per-request function of the
        whole simulator.
        """
        if n_lines < 1:
            raise ValueError("n_lines must be >= 1")
        stats = self.stats
        t_refi = self._t_refi
        t_rfc = self._t_rfc
        # Inlined self._refresh.adjust(at).
        if at < 0:
            at = 0.0
        offset = at % t_refi
        t = at + (t_rfc - offset) if offset < t_rfc else at
        if self.open_row == row:
            stats.row_buffer_hits += 1
            row_ready = self._row_ready_at
            col_start = t if t >= row_ready else row_ready
            activated = False
            act_time = self._next_act_at - self._t_rc
        else:
            stats.row_buffer_misses += 1
            next_act = self._next_act_at
            act_at = t if t >= next_act else next_act
            if self.open_row is not None:
                # Close the old row first (PRE), then activate.
                row_ready = self._row_ready_at
                if row_ready > act_at:
                    act_at = row_ready
                act_at += self._t_rp
                stats.precharges += 1
            # Inlined self._refresh.adjust(act_at) (act_at >= 0 here).
            offset = act_at % t_refi
            if offset < t_rfc:
                act_at += t_rfc - offset
            if self._act_window is not None:
                act_at = self._act_window.reserve(act_at)
            self.open_row = row
            self._next_act_at = act_at + self._t_rc
            col_start = self._row_ready_at = act_at + self._t_rcd
            stats.activations += 1
            activated = True
            act_time = act_at
        first_data = col_start + self._t_cas
        # Inlined bus.transfer(first_data, n_lines) (n_lines >= 1).
        free_at = bus.free_at
        start = first_data if first_data >= free_at else free_at
        duration = n_lines * bus._t_burst
        completion = start + duration
        bus.free_at = completion
        bus.busy_time += duration
        if is_write:
            stats.write_lines += n_lines
        else:
            stats.read_lines += n_lines
        return AccessResult(completion, activated, act_time)

    def refresh_row(self, at: float) -> float:
        """Victim-refresh one row: an ACT/PRE cycle with no data burst.

        The row is left closed. Returns the time the bank becomes free
        again (ACT + tRC).
        """
        timing = self._timing
        act_at = max(self._refresh.adjust(at), self._next_act_at)
        if self.open_row is not None:
            act_at = self._refresh.adjust(
                max(act_at, self._row_ready_at) + timing.t_rp
            )
            self.stats.precharges += 1
        if self._act_window is not None:
            act_at = self._act_window.constrain(act_at)
            self._act_window.record(act_at)
        self.stats.activations += 1
        self._next_act_at = act_at + timing.t_rc
        self._row_ready_at = act_at + timing.t_rcd
        self.open_row = None
        return act_at + timing.t_rc

    def precharge_all(self) -> None:
        """Close the open row (used at window boundaries in tests)."""
        if self.open_row is not None:
            self.stats.precharges += 1
        self.open_row = None
