"""Mithril: RFM-driven cooperative tracking (Kim et al., 2021).

Referenced by the paper (§1) among in-DRAM SRAM trackers. Mithril
pairs a Space-Saving-style counter table *inside the DRAM* with the
DDR5 Refresh-Management (RFM) command: the memory controller issues an
RFM every ``rfm_interval`` activations, and the DRAM uses that slot to
refresh the neighbours of its current maximum-count row, then lowers
that row's count to the table minimum.

The security argument (adapted from the Mithril paper): between
mitigations the maximum tabled count can climb by at most
``rfm_interval``, and Space-Saving guarantees every row's estimate
dominates its true count, so a row's true count can never exceed
``table-min + rfm_interval`` without being the maximum at some RFM —
choosing ``rfm_interval <= T_H/2`` with an adequately sized table
bounds unmitigated counts below T_H. The property tests exercise
exactly this bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.dram.timing import DramGeometry, DramTiming
from repro.trackers.base import ActivationTracker, TrackerResponse
from repro.trackers.registry import BANK_SIZE, Param, register_tracker
from repro.trackers.graphene import _SpaceSavingTable

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig


class MithrilTracker(ActivationTracker):
    """Space-Saving table mitigated on periodic RFM opportunities."""

    name = "mithril"

    def __init__(
        self,
        geometry: DramGeometry,
        trh: int = 500,
        timing: DramTiming = DramTiming(),
        rfm_interval: Optional[int] = None,
        entries_per_bank: Optional[int] = None,
    ) -> None:
        self.geometry = geometry
        self.trh = trh
        self.threshold = trh // 2
        self.rfm_interval = (
            rfm_interval if rfm_interval is not None else max(1, self.threshold // 4)
        )
        if self.rfm_interval <= 0:
            raise ValueError("rfm_interval must be positive")
        if entries_per_bank is None:
            act_max = timing.max_activations_per_window()
            entries_per_bank = -(-act_max // max(1, self.threshold // 2)) + 1
        self.entries_per_bank = entries_per_bank
        self._rows_per_bank = geometry.rows_per_bank
        self._tables = [
            _SpaceSavingTable(entries_per_bank)
            for _ in range(geometry.total_banks)
        ]
        self._acts_since_rfm = [0] * geometry.total_banks
        self.mitigations = 0
        self.rfm_commands = 0

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        bank = row_id // self._rows_per_bank
        table = self._tables[bank]
        estimate = table.record(row_id)
        self._acts_since_rfm[bank] += 1
        # Immediate backstop: a row at the threshold cannot wait for
        # the next RFM slot (the estimate only overestimates, so this
        # only ever fires early, never late).
        if estimate >= self.threshold:
            table.reset_row(row_id, table.floor())
            self.mitigations += 1
            return TrackerResponse(mitigate_rows=(row_id,))
        if self._acts_since_rfm[bank] >= self.rfm_interval:
            self._acts_since_rfm[bank] = 0
            self.rfm_commands += 1
            if table.counts:
                hottest = max(table.counts, key=table.counts.__getitem__)
                table.reset_row(hottest, table.floor())
                self.mitigations += 1
                return TrackerResponse(mitigate_rows=(hottest,))
        return None

    def on_window_reset(self) -> None:
        for table in self._tables:
            table.clear()
        self._acts_since_rfm = [0] * len(self._acts_since_rfm)

    def sram_bytes(self) -> int:
        return 4 * self.entries_per_bank * self.geometry.total_banks


@register_tracker(
    "mithril",
    summary="Space-Saving table mitigated on RFM opportunities (Mithril)",
    params={
        "rfm_interval": Param(
            int, help="activations per RFM opportunity (default: T_H/8)"
        ),
        "entries_per_bank": Param(
            int, help="table entries per bank (default: derived)", bounds=BANK_SIZE
        ),
    },
)
def _mithril_from_context(
    ctx: SystemConfig,
    rfm_interval: Optional[int] = None,
    entries_per_bank: Optional[int] = None,
) -> MithrilTracker:
    return MithrilTracker(
        ctx.geometry,
        trh=ctx.trh,
        timing=ctx.timing,
        rfm_interval=rfm_interval,
        entries_per_bank=entries_per_bank,
    )
