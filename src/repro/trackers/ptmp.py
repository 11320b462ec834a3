"""PTMP: probabilistic tracker management (Jaleel et al., arXiv
2404.16256).

The PrIDE design point from "Probabilistic Tracker Management Policies
for Low-Cost and Scalable Rowhammer Mitigation": instead of sizing a
tracker table to *guarantee* capturing every aggressor (Graphene's
CAM) or keeping no state at all (PARA), keep a **tiny per-bank FIFO**
(~5 entries) and manage it probabilistically:

- on each activation, the row is **inserted** into its bank's FIFO
  with probability ``p`` (default 1/8), evicting the oldest entry when
  full — Bernoulli insertion decouples the table's capture behaviour
  from deterministic thrashing patterns (an adversary cannot reliably
  evict a hot row by sweeping decoys, because decoys only enter the
  table with probability ``p`` themselves);
- once per tREFI-equivalent interval (``W = tREFI / tRC`` activation
  slots, the MINT clock idiom — this simulator is activation-driven),
  the bank **drains** one entry from the FIFO head and issues a
  mitigation for it, modeling mitigations scheduled into periodic
  refresh slots rather than on demand.

Security is **probabilistic**: an aggressor row's chance of escaping
insertion across ``n`` activations is ``(1-p)^n``, which at T_RH
activations is negligible for sane ``p`` — but individual oracle runs
at ultra-low thresholds can still show violations without
contradicting the design (the same caveat as PARA/MINT). Storage is
``entries`` row ids per bank — orders of magnitude below Graphene at
ultra-low thresholds, the paper's headline.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Deque, List, Optional

from collections import deque

from repro.dram.timing import DramGeometry, DramTiming
from repro.trackers.base import ActivationTracker, TrackerResponse
from repro.trackers.mint import mint_interval_slots
from repro.trackers.registry import BANK_SIZE, Param, register_tracker

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig

#: PrIDE's headline configuration: 5-entry FIFOs, 1/8 insertion.
DEFAULT_PTMP_ENTRIES = 5
DEFAULT_PTMP_PROBABILITY = 0.125


class _PtmpBank:
    """One bank's FIFO and mitigation-slot clock."""

    __slots__ = ("fifo", "slot")

    def __init__(self) -> None:
        self.fifo: Deque[int] = deque()
        #: 1-based position of the next activation within the interval.
        self.slot = 0


class PtmpTracker(ActivationTracker):
    """Per-bank probabilistic-insertion FIFO with refresh-slot drains."""

    name = "ptmp"

    def __init__(
        self,
        geometry: DramGeometry,
        timing: DramTiming = DramTiming(),
        entries: int = DEFAULT_PTMP_ENTRIES,
        probability: float = DEFAULT_PTMP_PROBABILITY,
        interval_slots: Optional[int] = None,
        seed: int = 0x50544D50,  # "PTMP"
    ) -> None:
        if entries <= 0:
            raise ValueError("entries must be positive")
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        self.geometry = geometry
        self.entries = entries
        self.probability = probability
        self.interval_slots = (
            interval_slots
            if interval_slots is not None
            else mint_interval_slots(timing)
        )
        if self.interval_slots <= 0:
            raise ValueError("interval_slots must be positive")
        self._rows_per_bank = geometry.rows_per_bank
        self._rng = random.Random(seed)
        self._banks: List[_PtmpBank] = [
            _PtmpBank() for _ in range(geometry.total_banks)
        ]
        self.mitigations = 0
        self.insertions = 0
        self.evictions = 0
        self.empty_drains = 0

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        bank = self._banks[row_id // self._rows_per_bank]
        if self._rng.random() < self.probability:
            self.insertions += 1
            if len(bank.fifo) >= self.entries:
                bank.fifo.popleft()
                self.evictions += 1
            bank.fifo.append(row_id)
        bank.slot += 1
        if bank.slot < self.interval_slots:
            return None
        # Interval complete: this bank's refresh slot drains one entry.
        bank.slot = 0
        if not bank.fifo:
            self.empty_drains += 1
            return None
        self.mitigations += 1
        return TrackerResponse(mitigate_rows=(bank.fifo.popleft(),))

    def on_window_reset(self) -> None:
        for bank in self._banks:
            bank.fifo.clear()
            bank.slot = 0

    def sram_bytes(self) -> int:
        """``entries`` row ids plus one slot counter per bank."""
        row_bits = max(1, (self._rows_per_bank - 1).bit_length())
        slot_bits = max(1, (self.interval_slots - 1).bit_length())
        per_bank_bits = self.entries * row_bits + slot_bits
        total_bits = per_bank_bits * self.geometry.total_banks
        return (total_bits + 7) // 8

    def extra_stats(self):
        return {
            "entries": self.entries,
            "probability": self.probability,
            "interval_slots": self.interval_slots,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "empty_drains": self.empty_drains,
        }


@register_tracker(
    "ptmp",
    summary="per-bank probabilistic-insertion FIFO (PrIDE/PTMP)",
    security_class="probabilistic",
    params={
        "entries": Param(
            int, DEFAULT_PTMP_ENTRIES, "FIFO entries per bank", bounds=BANK_SIZE
        ),
        "probability": Param(
            float,
            DEFAULT_PTMP_PROBABILITY,
            "per-ACT insertion probability",
        ),
        "interval_slots": Param(
            int,
            help="activation slots per mitigation drain (default: W ="
            " tREFI/tRC)",
        ),
        "seed": Param(int, 0x50544D50, "PRNG seed for insertion draws"),
    },
)
def _ptmp_from_context(
    ctx: SystemConfig,
    entries: int = DEFAULT_PTMP_ENTRIES,
    probability: float = DEFAULT_PTMP_PROBABILITY,
    interval_slots: Optional[int] = None,
    seed: int = 0x50544D50,
) -> PtmpTracker:
    return PtmpTracker(
        ctx.geometry,
        timing=ctx.timing,
        entries=entries,
        probability=probability,
        interval_slots=interval_slots,
        seed=seed,
    )
