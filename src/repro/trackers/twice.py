"""TWiCE: Time Window Counter-based tracking (Lee et al., ISCA 2019).

A per-bank table of {row -> (activation count, lifetime)} entries,
periodically *pruned*: an entry whose activation count is too low to
ever reach the RowHammer threshold within the remaining refresh window
cannot be a viable aggressor and is dropped, so the table only retains
plausible candidates. That pruning rule is why TWiCE is compact at
T_RH = 32K and why it degenerates toward one-counter-per-row at
ultra-low thresholds (Table 1): at T_RH = 500 almost *every* touched
row stays a viable candidate.

Pruning model: time is measured in per-bank activations. A row is
prunable only when it *provably* cannot reach the threshold anymore:
``count + (ACT_max - acts_so_far) < T_H`` — even monopolizing every
remaining activation of the bank would not get it there. This sound
rule is deliberately weak at ultra-low thresholds (nothing is prunable
until the window is nearly spent), which is precisely the paper's §2.4
criticism: at T_RH = 500, TWiCE degenerates toward one-counter-per-
row storage. A full table falls back to evicting the minimum-count
entry *into a new entry inheriting that count* (Space-Saving style) so
soundness is preserved even when under-provisioned.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.dram.timing import DramGeometry, DramTiming
from repro.trackers.base import ActivationTracker, TrackerResponse
from repro.trackers.registry import BANK_SIZE, Param, register_tracker

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig


class _BankTable:
    """One bank's TWiCE table."""

    __slots__ = ("capacity", "entries", "acts", "pruned")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: Dict[int, int] = {}
        self.acts = 0
        self.pruned = 0

    def prune(self, minimum_count: int) -> None:
        doomed = [
            row for row, count in self.entries.items() if count < minimum_count
        ]
        for row in doomed:
            del self.entries[row]
        self.pruned += len(doomed)

    def clear(self) -> None:
        self.entries.clear()
        self.acts = 0


class TwiceTracker(ActivationTracker):
    """Pruned activation table with victim-refresh mitigation."""

    name = "twice"

    def __init__(
        self,
        geometry: DramGeometry,
        trh: int = 500,
        timing: DramTiming = DramTiming(),
        entries_per_bank: Optional[int] = None,
        prune_interval_acts: int = 2048,
    ) -> None:
        if prune_interval_acts <= 0:
            raise ValueError("prune_interval_acts must be positive")
        self.geometry = geometry
        self.trh = trh
        self.threshold = trh // 2
        self._act_max = timing.max_activations_per_window()
        if entries_per_bank is None:
            from repro.trackers.storage import twice_bytes_per_rank

            per_rank = twice_bytes_per_rank(trh) // 4
            entries_per_bank = max(64, per_rank // geometry.banks_per_rank)
        self.entries_per_bank = entries_per_bank
        self.prune_interval_acts = prune_interval_acts
        self._rows_per_bank = geometry.rows_per_bank
        self._tables = [
            _BankTable(entries_per_bank) for _ in range(geometry.total_banks)
        ]
        self.mitigations = 0

    # ------------------------------------------------------------------

    def _viability_bar(self, acts_so_far: int) -> int:
        """Count below which a row provably cannot reach T_H anymore.

        Even taking every one of the bank's remaining activations, a
        row with ``count < T_H - remaining`` cannot reach the
        threshold before the window ends, so it is safe to forget.
        """
        remaining = max(0, self._act_max - acts_so_far)
        return self.threshold - remaining

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        table = self._tables[row_id // self._rows_per_bank]
        table.acts += 1
        if table.acts % self.prune_interval_acts == 0:
            bar = self._viability_bar(table.acts)
            if bar > 1:
                table.prune(bar)
        count = table.entries.get(row_id)
        if count is not None:
            count += 1
        elif len(table.entries) < table.capacity:
            count = 1
        else:
            # Securely degrade: displace the minimum entry, inheriting
            # its count so the newcomer is never under-estimated.
            victim = min(table.entries, key=table.entries.__getitem__)
            count = table.entries.pop(victim) + 1
        if count >= self.threshold:
            self.mitigations += 1
            # Keep the entry, dropped to the table's floor rather than
            # popped: removing entries would free slots that let later
            # newcomers enter below evicted rows' true counts, breaking
            # the overestimate invariant (same reasoning as Graphene's
            # spillover reset).
            others = (
                c for r, c in table.entries.items() if r != row_id
            )
            floor = min(others, default=0)
            table.entries[row_id] = min(floor, self.threshold - 1)
            return TrackerResponse(mitigate_rows=(row_id,))
        table.entries[row_id] = count
        return None

    def on_window_reset(self) -> None:
        for table in self._tables:
            table.clear()

    def sram_bytes(self) -> int:
        return 4 * self.entries_per_bank * self.geometry.total_banks

    def pruned_entries(self) -> int:
        return sum(table.pruned for table in self._tables)

    def occupancy(self) -> int:
        return sum(len(table.entries) for table in self._tables)


@register_tracker(
    "twice",
    summary="pruned activation table in the buffer chip (TWiCe)",
    params={
        "entries_per_bank": Param(
            int, help="table entries per bank (default: Table 1 sizing)",
            bounds=BANK_SIZE,
        ),
        "prune_interval_acts": Param(
            int, 2048, "activations between pruning passes"
        ),
    },
)
def _twice_from_context(
    ctx: SystemConfig,
    entries_per_bank: Optional[int] = None,
    prune_interval_acts: int = 2048,
) -> TwiceTracker:
    return TwiceTracker(
        ctx.geometry,
        trh=ctx.trh,
        timing=ctx.timing,
        entries_per_bank=entries_per_bank,
        prune_interval_acts=prune_interval_acts,
    )
