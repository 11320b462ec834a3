"""Graphene: Misra-Gries / Space-Saving SRAM tracking (MICRO 2020).

The state-of-the-art SRAM tracker the paper compares against. Each
bank has a frequent-row table maintained with the Space-Saving variant
of Misra-Gries: a full table evicts a minimum-count entry, and the
newcomer inherits ``min + 1``, so every tabled count is an
*overestimate* of the row's true count — which is what makes
mitigation-on-threshold sound. A spillover minimum bounded by
ACT_max / entries guarantees any row that could approach the threshold
is resident.

Sizing follows the paper's §4.1 arithmetic: the tracker operates at
T_RH/2 (window-reset halving, footnote 3) and therefore needs
``ceil(ACT_max / (T_RH/2)) + 1`` entries per bank — 5441 entries/bank
at T_RH = 500, i.e. the 340 KB/rank CAM of Table 1.

The bucket-queue implementation below is O(1) amortized per
activation, which matters because Graphene is consulted on *every*
activation of every bank.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.core.config import MIN_TRH
from repro.dram.timing import DramGeometry, DramTiming
from repro.trackers.base import ActivationTracker, TrackerResponse
from repro.trackers.registry import BANK_SIZE, Param, register_tracker

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig


class _SpaceSavingTable:
    """One bank's frequent-row table (bucket-queue Space-Saving)."""

    __slots__ = ("capacity", "counts", "_buckets", "_min_count")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.counts: Dict[int, int] = {}
        self._buckets: Dict[int, Set[int]] = {}
        self._min_count = 0

    def record(self, row: int) -> int:
        """Count one activation; return the row's (over)estimate."""
        count = self.counts.get(row)
        if count is not None:
            self._move(row, count, count + 1)
            return count + 1
        if len(self.counts) < self.capacity:
            self._insert(row, 1)
            return 1
        # Table full: evict a minimum-count row, inherit min + 1.
        victim = next(iter(self._buckets[self._min_count]))
        new_count = self._min_count + 1
        self._remove(victim, self._min_count)
        self._insert(row, new_count)
        return new_count

    def floor(self) -> int:
        """The spillover floor: the minimum count among tabled rows.

        This is the count a newly inserted row inherits (plus one) when
        the table is full, and the value Graphene resets a mitigated
        row's estimate to. Public accessor so trackers built on this
        table never reach into ``_min_count``. Zero on an empty table.
        """
        return self._min_count

    def reset_row(self, row: int, value: int) -> None:
        """After mitigation, drop the row's estimate to ``value``."""
        count = self.counts.get(row)
        if count is None:
            return
        self._move(row, count, value)

    def clear(self) -> None:
        self.counts.clear()
        self._buckets.clear()
        self._min_count = 0

    # -- bucket-queue plumbing -------------------------------------------

    def _insert(self, row: int, count: int) -> None:
        self.counts[row] = count
        self._buckets.setdefault(count, set()).add(row)
        if len(self.counts) == 1 or count < self._min_count:
            self._min_count = count

    def _remove(self, row: int, count: int) -> None:
        del self.counts[row]
        bucket = self._buckets[count]
        bucket.discard(row)
        if not bucket:
            del self._buckets[count]
            if count == self._min_count and self.counts:
                self._min_count = min(self._buckets)

    def _move(self, row: int, old: int, new: int) -> None:
        bucket = self._buckets[old]
        bucket.discard(row)
        if not bucket:
            del self._buckets[old]
        self._buckets.setdefault(new, set()).add(row)
        self.counts[row] = new
        if old == self._min_count and old not in self._buckets:
            self._min_count = min(self._buckets)
        if new < self._min_count:
            self._min_count = new


def graphene_entries_per_bank(trh: int, act_max: int) -> int:
    """Entries one bank's table needs at threshold ``trh`` (§4.1)."""
    if trh < MIN_TRH:
        raise ValueError("trh too small")
    mitigation_threshold = trh // 2
    return -(-act_max // mitigation_threshold) + 1


class GrapheneTracker(ActivationTracker):
    """Per-bank Misra-Gries tracker with victim-refresh mitigation."""

    name = "graphene"

    def __init__(
        self,
        geometry: DramGeometry,
        trh: int = 500,
        timing: DramTiming = DramTiming(),
        entries_per_bank: Optional[int] = None,
    ) -> None:
        self.geometry = geometry
        self.trh = trh
        #: Mitigation threshold: halved once for the window reset.
        self.threshold = trh // 2
        act_max = timing.max_activations_per_window()
        self.entries_per_bank = (
            entries_per_bank
            if entries_per_bank is not None
            else graphene_entries_per_bank(trh, act_max)
        )
        self._rows_per_bank = geometry.rows_per_bank
        self._tables = [
            _SpaceSavingTable(self.entries_per_bank)
            for _ in range(geometry.total_banks)
        ]
        self.mitigations = 0
        self.activations = 0

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        self.activations += 1
        table = self._tables[row_id // self._rows_per_bank]
        estimate = table.record(row_id)
        if estimate >= self.threshold:
            # Reset to the current spillover floor, as Graphene does,
            # so repeated hammering keeps re-triggering mitigation.
            table.reset_row(row_id, table.floor())
            self.mitigations += 1
            return TrackerResponse(mitigate_rows=(row_id,))
        return None

    def on_window_reset(self) -> None:
        for table in self._tables:
            table.clear()

    def sram_bytes(self) -> int:
        """4 bytes per CAM entry (tag + count), per Table 1."""
        return 4 * self.entries_per_bank * self.geometry.total_banks


@register_tracker(
    "graphene",
    summary="Misra-Gries frequent-row CAM per bank (MICRO 2020)",
    params={
        "entries_per_bank": Param(
            int, help="table entries per bank (default: the §4.1 sizing)",
            bounds=BANK_SIZE,
        ),
    },
)
def _graphene_from_context(
    ctx: SystemConfig, entries_per_bank: Optional[int] = None
) -> GrapheneTracker:
    return GrapheneTracker(
        ctx.geometry,
        trh=ctx.trh,
        timing=ctx.timing,
        entries_per_bank=entries_per_bank,
    )
