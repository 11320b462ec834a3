"""OCPR: One-Counter-Per-Row, the naive exact tracker (Table 1).

A dedicated SRAM counter for every DRAM row. Functionally it is the
*ideal* tracker — exact counts, zero metadata traffic, mitigation
exactly at threshold — but its storage (one counter x millions of
rows) is megabytes per rank, which is why it only serves as the upper
bound in the paper's storage analysis. It doubles in this reproduction
as the ground-truth oracle for security tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.dram.timing import DramGeometry
from repro.trackers.base import ActivationTracker, TrackerResponse
from repro.trackers.registry import register_tracker

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig


class OcprTracker(ActivationTracker):
    """Exact per-row SRAM counters."""

    name = "ocpr"

    def __init__(self, geometry: DramGeometry, trh: int = 500) -> None:
        self.geometry = geometry
        self.trh = trh
        self.threshold = trh // 2
        self._counts: List[int] = [0] * geometry.total_rows
        self.mitigations = 0

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        count = self._counts[row_id] + 1
        if count >= self.threshold:
            self._counts[row_id] = 0
            self.mitigations += 1
            return TrackerResponse(mitigate_rows=(row_id,))
        self._counts[row_id] = count
        return None

    def count_of(self, row_id: int) -> int:
        """Exact activation count since last mitigation/reset."""
        return self._counts[row_id]

    def on_window_reset(self) -> None:
        self._counts = [0] * len(self._counts)

    def sram_bytes(self) -> int:
        """R rows x log2(T_RH) bits (Table 1's OCPR column)."""
        bits = max(1, (self.trh - 1).bit_length())
        return (self.geometry.total_rows * bits + 7) // 8


@register_tracker(
    "ocpr", summary="exact per-row SRAM counters (the idealized tracker)"
)
def _ocpr_from_context(ctx: SystemConfig) -> OcprTracker:
    return OcprTracker(ctx.geometry, trh=ctx.trh)
