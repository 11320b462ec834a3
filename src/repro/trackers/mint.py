"""MINT: minimalist in-DRAM tracking (Qureshi et al., arXiv 2407.16038).

The opposite end of the design space from Graphene's CAM: **one**
tracking entry per bank. MINT divides time into tREFI-sized intervals;
an interval fits ``W = tREFI / tRC`` activations (173 slots with this
repo's DDR4 timing). At the start of each interval the bank draws a
uniformly random slot number in ``[1, W]``; the row activated at that
slot becomes the interval's *selected* row and is mitigated at the
interval-ending REF. Every activation slot across the window is thus
sampled with equal probability 1/W, which the paper shows matches the
best attainable in-DRAM tracker within 2.1x (its minimum tolerable
T_RH ~ 1400 on DDR5 versus ~ 700 for an ideal tracker).

Security is **probabilistic**: an aggressor dodges mitigation for a
whole window only if every one of its activations falls on unselected
slots — a probability that decays geometrically in the activation
count, but is not zero, so individual oracle runs at ultra-low
thresholds can show violations without contradicting the design.

The simulator is activation-driven, not clocked, so intervals advance
by activation count: ``W`` activations of a bank complete one of its
intervals. Under a saturating attack (the security-relevant regime)
that is exactly the paper's timing; under light load it makes MINT
*more* attentive than real hardware, never less.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional

from repro.dram.timing import DramGeometry, DramTiming
from repro.trackers.base import ActivationTracker, TrackerResponse
from repro.trackers.registry import Param, register_tracker

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig


def mint_interval_slots(timing: DramTiming) -> int:
    """Activation slots per tREFI interval (the paper's ``W``)."""
    return max(1, int(timing.t_refi // timing.t_rc))


class _MintBank:
    """One bank's single-entry tracker state."""

    __slots__ = ("slot", "selected_slot", "selected_row")

    def __init__(self) -> None:
        #: 1-based position of the next activation within the interval.
        self.slot = 0
        self.selected_slot = 0
        self.selected_row: Optional[int] = None


class MintTracker(ActivationTracker):
    """Single-entry-per-bank random-slot sampling tracker."""

    name = "mint"

    def __init__(
        self,
        geometry: DramGeometry,
        timing: DramTiming = DramTiming(),
        interval_slots: Optional[int] = None,
        seed: int = 0x4D494E54,  # "MINT"
    ) -> None:
        self.geometry = geometry
        self.interval_slots = (
            interval_slots
            if interval_slots is not None
            else mint_interval_slots(timing)
        )
        if self.interval_slots <= 0:
            raise ValueError("interval_slots must be positive")
        self._rows_per_bank = geometry.rows_per_bank
        self._rng = random.Random(seed)
        self._banks: List[_MintBank] = [
            _MintBank() for _ in range(geometry.total_banks)
        ]
        for bank in self._banks:
            self._start_interval(bank)
        self.mitigations = 0
        self.intervals = 0
        self.empty_intervals = 0

    def _start_interval(self, bank: _MintBank) -> None:
        bank.slot = 0
        bank.selected_slot = self._rng.randint(1, self.interval_slots)
        bank.selected_row = None

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        bank = self._banks[row_id // self._rows_per_bank]
        bank.slot += 1
        if bank.slot == bank.selected_slot:
            bank.selected_row = row_id
        if bank.slot < self.interval_slots:
            return None
        # Interval complete: the REF slot mitigates the selected row.
        selected = bank.selected_row
        self.intervals += 1
        self._start_interval(bank)
        if selected is None:
            self.empty_intervals += 1
            return None
        self.mitigations += 1
        return TrackerResponse(mitigate_rows=(selected,))

    def on_window_reset(self) -> None:
        for bank in self._banks:
            self._start_interval(bank)

    def sram_bytes(self) -> int:
        """Two slot registers plus one row id per bank — the point."""
        slot_bits = max(1, (self.interval_slots - 1).bit_length())
        row_bits = max(1, (self._rows_per_bank - 1).bit_length())
        per_bank_bits = 2 * slot_bits + row_bits
        total_bits = per_bank_bits * self.geometry.total_banks
        return (total_bits + 7) // 8

    def extra_stats(self):
        return {
            "interval_slots": self.interval_slots,
            "intervals": self.intervals,
            "empty_intervals": self.empty_intervals,
        }


@register_tracker(
    "mint",
    summary="single-entry-per-bank random-slot in-DRAM sampler (MINT)",
    security_class="probabilistic",
    params={
        "interval_slots": Param(
            int, help="activation slots per tREFI interval (default: W)"
        ),
        "seed": Param(int, 0x4D494E54, "PRNG seed for slot selection"),
    },
)
def _mint_from_context(
    ctx: SystemConfig,
    interval_slots: Optional[int] = None,
    seed: int = 0x4D494E54,
) -> MintTracker:
    return MintTracker(
        ctx.geometry,
        timing=ctx.timing,
        interval_slots=interval_slots,
        seed=seed,
    )
