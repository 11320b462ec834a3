"""START: scalable LLC-resident tracking (Saxena & Qureshi, 2023).

"Scalable and Configurable Tracking for Any Rowhammer Threshold"
(arXiv 2308.14889). Where Graphene adds a dedicated CAM and Hydra
reserves DRAM, START stores activation counters in dynamically
reserved **last-level-cache lines**, allocated only when tracking
actually needs them — benign workloads reserve almost nothing, and the
worst case tops out at the equivalent of plain per-row counters.

Two-level scheme, per bank:

1. **Group counters.** Rows are grouped ``rows_per_line`` to a 64 B
   line (32 rows at 2 B per counter); one aggregate counter per group
   counts all activations of the group. A group counter dominates
   every member row's true count by construction.
2. **Escalation.** When a group's aggregate reaches the escalation
   threshold (half the mitigation threshold), the group is promoted to
   a dedicated per-row counter line; every member row's counter is
   initialised to the group aggregate — inheriting the overestimate,
   so soundness survives the promotion. A per-row counter reaching the
   mitigation threshold triggers a victim refresh and resets to zero.

The line budget is the paper's arithmetic: at most
``ACT_max / escalation_threshold`` groups can reach the escalation
threshold in one window (each promotion consumes that many
activations), and the budget never needs to exceed the degenerate
"every row's counter resident" footprint — so

    lines_per_bank = min(ceil(ACT_max / esc), ceil(rows * 2 B / 64 B))

which shrinks toward a handful of lines at T_RH = 139K and saturates
at the per-row footprint at ultra-low thresholds. If the budget is
overridden below the safe sizing and runs out, a hot group falls back
to **group-wide mitigation**: when its aggregate reaches the
mitigation threshold, every row of the group is refreshed and the
aggregate resets — expensive (the performance cliff the paper sizes
against) but still sound, since no member's true count can exceed the
aggregate.

The reservation is LLC capacity, not dedicated SRAM: ``sram_bytes()``
reports only the tiny directory, and ``llc_reserved_bytes()`` (also in
``extra_stats``) reports the cache carve-out — the arena's storage
axis charges both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.config import MIN_TRH
from repro.dram.timing import DramGeometry, DramTiming
from repro.trackers.base import ActivationTracker, TrackerResponse
from repro.trackers.registry import BANK_SIZE, Param, register_tracker

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig

#: One 64 B LLC line holds 32 two-byte counters.
LINE_BYTES = 64
COUNTER_BYTES = 2
ROWS_PER_LINE = LINE_BYTES // COUNTER_BYTES


def start_lines_per_bank(trh: int, act_max: int, rows_per_bank: int) -> int:
    """Per-row counter lines one bank can ever need (see module doc)."""
    if trh < MIN_TRH:
        raise ValueError("trh too small")
    escalation = max(1, trh // 4)
    worst_case_groups = -(-act_max // escalation)
    per_row_lines = -(-rows_per_bank // ROWS_PER_LINE)
    return max(1, min(worst_case_groups, per_row_lines))


class _StartBank:
    """One bank's two-level counter state."""

    __slots__ = ("group_counts", "escalated", "degraded")

    def __init__(self) -> None:
        #: group -> aggregate activation count (level 1).
        self.group_counts: Dict[int, int] = {}
        #: group -> per-row counter line (level 2), keyed by local row.
        self.escalated: Dict[int, List[int]] = {}
        #: Groups denied a line by an exhausted budget (clamp mode).
        self.degraded = 0


class StartTracker(ActivationTracker):
    """Two-level LLC-resident counters with on-demand escalation."""

    name = "start"

    def __init__(
        self,
        geometry: DramGeometry,
        trh: int = 500,
        timing: DramTiming = DramTiming(),
        lines_per_bank: Optional[int] = None,
    ) -> None:
        self.geometry = geometry
        self.trh = trh
        #: Mitigation threshold: halved once for the window reset.
        self.threshold = max(2, trh // 2)
        #: Escalate well before mitigation so the promoted per-row
        #: counters (initialised to the aggregate) retain headroom.
        self.escalation_threshold = max(1, trh // 4)
        act_max = timing.max_activations_per_window()
        self.lines_per_bank = (
            lines_per_bank
            if lines_per_bank is not None
            else start_lines_per_bank(trh, act_max, geometry.rows_per_bank)
        )
        if self.lines_per_bank <= 0:
            raise ValueError("lines_per_bank must be positive")
        self._rows_per_bank = geometry.rows_per_bank
        self._groups_per_bank = -(-geometry.rows_per_bank // ROWS_PER_LINE)
        self._banks = [_StartBank() for _ in range(geometry.total_banks)]
        self.mitigations = 0
        self.escalations = 0
        self.group_mitigations = 0
        self.peak_lines = 0

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        bank = self._banks[row_id // self._rows_per_bank]
        local = row_id % self._rows_per_bank
        group = local // ROWS_PER_LINE
        line = bank.escalated.get(group)
        if line is not None:
            slot = local % ROWS_PER_LINE
            count = line[slot] + 1
            if count >= self.threshold:
                line[slot] = 0
                self.mitigations += 1
                return TrackerResponse(mitigate_rows=(row_id,))
            line[slot] = count
            return None
        aggregate = bank.group_counts.get(group, 0) + 1
        if aggregate >= self.escalation_threshold:
            if len(bank.escalated) < self.lines_per_bank:
                # Promote: per-row counters inherit the aggregate.
                bank.escalated[group] = [aggregate] * ROWS_PER_LINE
                bank.group_counts.pop(group, None)
                self.escalations += 1
                if len(bank.escalated) > self.peak_lines:
                    self.peak_lines = len(bank.escalated)
                if aggregate >= self.threshold:
                    # Undersized escalation threshold override: the
                    # aggregate already crossed the mitigation bound.
                    return self._mitigate_group(bank, row_id, group)
                return None
            bank.degraded += 1
        if aggregate >= self.threshold:
            return self._mitigate_group(bank, row_id, group)
        bank.group_counts[group] = aggregate
        return None

    def _mitigate_group(
        self, bank: _StartBank, row_id: int, group: int
    ) -> TrackerResponse:
        """Clamp mode: refresh the whole group, reset its counters."""
        line = bank.escalated.get(group)
        if line is not None:
            for slot in range(ROWS_PER_LINE):
                line[slot] = 0
        bank.group_counts.pop(group, None)
        base = (row_id // self._rows_per_bank) * self._rows_per_bank
        first = base + group * ROWS_PER_LINE
        rows = tuple(
            first + offset
            for offset in range(ROWS_PER_LINE)
            if first + offset < base + self._rows_per_bank
        )
        self.mitigations += len(rows)
        self.group_mitigations += 1
        return TrackerResponse(mitigate_rows=rows)

    def on_window_reset(self) -> None:
        for bank in self._banks:
            bank.group_counts.clear()
            bank.escalated.clear()

    def sram_bytes(self) -> int:
        """Only the escalation directory lives in dedicated SRAM:
        one presence bit per group per bank."""
        total_bits = self._groups_per_bank * self.geometry.total_banks
        return (total_bits + 7) // 8

    def llc_reserved_bytes(self) -> int:
        """Worst-case LLC carve-out: the per-row line budget plus the
        group-counter lines themselves."""
        group_lines = -(-self._groups_per_bank * COUNTER_BYTES // LINE_BYTES)
        per_bank = (self.lines_per_bank + group_lines) * LINE_BYTES
        return per_bank * self.geometry.total_banks

    def extra_stats(self):
        return {
            "lines_per_bank": self.lines_per_bank,
            "llc_reserved_bytes": self.llc_reserved_bytes(),
            "escalations": self.escalations,
            "peak_lines": self.peak_lines,
            "group_mitigations": self.group_mitigations,
            "degraded_acts": sum(b.degraded for b in self._banks),
        }


@register_tracker(
    "start",
    summary="LLC-resident group counters escalating to per-row (START)",
    params={
        "lines_per_bank": Param(
            int,
            help="per-row counter line budget per bank (default: paper"
            " sizing, min(ACT_max/esc, per-row footprint))",
            bounds=BANK_SIZE,
        ),
    },
)
def _start_from_context(
    ctx: SystemConfig, lines_per_bank: Optional[int] = None
) -> StartTracker:
    return StartTracker(
        ctx.geometry,
        trh=ctx.trh,
        timing=ctx.timing,
        lines_per_bank=lines_per_bank,
    )
