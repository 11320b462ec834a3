"""CoMeT: Count-Min-Sketch row tracking (Bostancı et al., HPCA 2024).

A post-Hydra successor tracker (arXiv 2402.18769). Each bank tracks
activation counts in a **Count-Min Sketch** — ``k`` hash functions,
each indexing its own counter array — instead of per-row tags: a row's
estimate is the *minimum* of its ``k`` counters, which (counters only
ever increase, and every activation of a row increments all ``k`` of
its counters) dominates the row's true count. Mitigating when the
minimum reaches the threshold is therefore sound by the same
overestimate argument as Graphene, at a fraction of the storage —
counters are shared by hash collision rather than tagged per row.

The catch: sketch counters are never decremented mid-window, so after
one mitigation a hot row's estimate stays at the threshold and every
further activation would re-mitigate. CoMeT's fix is the **Recent
Aggressor Table (RAT)**: a small per-bank table of recently mitigated
rows with *exact* dedicated counters starting from zero. RAT hits
bypass the sketch; a RAT eviction simply drops the row back to the
sketch path, where its stale (high) estimate re-mitigates it within
one activation — conservative, never unsafe.

Sizing follows the paper's design point — ``k = 4`` hash functions and
512 counters per hash per bank at T_RH = 1000 — and scales the counter
arrays inversely with T_RH (the paper's sensitivity trend: halving the
threshold doubles the rows that can approach it, hence the width
needed to keep collision-induced spurious mitigations rare).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.dram.timing import DramGeometry
from repro.trackers.base import ActivationTracker, TrackerResponse
from repro.trackers.registry import BANK_SIZE, Param, register_tracker

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig

#: Large odd multipliers for the four CMS hash functions (Knuth-style,
#: same construction as the D-CBF hashes).
_HASH_MULTIPLIERS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0xD6E8FEB86659FD93,
)
_HASH_BITS = 64

#: The paper's design point: counters per hash per bank at T_RH = 1000.
_BASE_COUNTERS = 512
_BASE_TRH = 1000


def comet_counters_per_hash(trh: int) -> int:
    """Counter-array width per hash function at threshold ``trh``.

    Anchored at the paper's 512-counters-per-hash design point for
    T_RH = 1000 and scaled inversely with the threshold, rounded up to
    a power of two (so the hash modulo stays cheap in hardware). The
    floor of 64 keeps the sketch non-degenerate at the 139K rung,
    where storage is nearly free anyway.
    """
    if trh <= 0:
        raise ValueError("trh must be positive")
    width = -(-_BASE_COUNTERS * _BASE_TRH // trh)
    width = max(64, width)
    return 1 << (width - 1).bit_length()


class _CountMinSketch:
    """One bank's sketch: k hash functions over k counter arrays."""

    __slots__ = ("width", "saturation", "_counts")

    def __init__(self, width: int, saturation: int) -> None:
        self.width = width
        #: Counters saturate at the mitigation threshold — higher
        #: values are indistinguishable, so the hardware never needs
        #: more than ``bit_length(threshold)`` bits per counter.
        self.saturation = saturation
        self._counts: List[List[int]] = [
            [0] * width for _ in _HASH_MULTIPLIERS
        ]

    def _index(self, hash_id: int, key: int) -> int:
        mult = _HASH_MULTIPLIERS[hash_id]
        return ((key * mult) >> (_HASH_BITS - 32)) % self.width

    def record(self, key: int) -> int:
        """Increment all k counters; return the new minimum estimate."""
        minimum = self.saturation
        for hash_id, counts in enumerate(self._counts):
            index = self._index(hash_id, key)
            value = counts[index]
            if value < self.saturation:
                value += 1
                counts[index] = value
            if value < minimum:
                minimum = value
        return minimum

    def clear(self) -> None:
        for counts in self._counts:
            for i in range(self.width):
                counts[i] = 0


class _CometBank:
    """Sketch + recent-aggressor table for one bank."""

    __slots__ = ("sketch", "rat", "rat_entries", "threshold")

    def __init__(self, width: int, rat_entries: int, threshold: int) -> None:
        self.sketch = _CountMinSketch(width, threshold)
        #: row -> exact activation count since its last mitigation.
        self.rat: Dict[int, int] = {}
        self.rat_entries = rat_entries
        self.threshold = threshold


class CometTracker(ActivationTracker):
    """Per-bank count-min sketch with a recent-aggressor table."""

    name = "comet"

    def __init__(
        self,
        geometry: DramGeometry,
        trh: int = 500,
        counters_per_hash: Optional[int] = None,
        rat_entries: int = 32,
    ) -> None:
        if rat_entries <= 0:
            raise ValueError("rat_entries must be positive")
        self.geometry = geometry
        self.trh = trh
        #: Mitigation threshold: halved once for the window reset,
        #: matching the repo-wide convention (Graphene footnote 3).
        self.threshold = max(1, trh // 2)
        self.counters_per_hash = (
            counters_per_hash
            if counters_per_hash is not None
            else comet_counters_per_hash(trh)
        )
        self.rat_entries = rat_entries
        self._rows_per_bank = geometry.rows_per_bank
        self._banks = [
            _CometBank(self.counters_per_hash, rat_entries, self.threshold)
            for _ in range(geometry.total_banks)
        ]
        self.mitigations = 0
        self.rat_hits = 0
        self.rat_evictions = 0
        self.sketch_mitigations = 0
        self.rat_mitigations = 0

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        bank = self._banks[row_id // self._rows_per_bank]
        count = bank.rat.get(row_id)
        if count is not None:
            # RAT hit: exact counting since the last mitigation.
            self.rat_hits += 1
            count += 1
            if count >= bank.threshold:
                bank.rat[row_id] = 0
                self.mitigations += 1
                self.rat_mitigations += 1
                return TrackerResponse(mitigate_rows=(row_id,))
            bank.rat[row_id] = count
            return None
        estimate = bank.sketch.record(row_id)
        if estimate >= bank.threshold:
            self.mitigations += 1
            self.sketch_mitigations += 1
            self._rat_insert(bank, row_id)
            return TrackerResponse(mitigate_rows=(row_id,))
        return None

    def _rat_insert(self, bank: _CometBank, row_id: int) -> None:
        """Start exact post-mitigation counting for ``row_id``.

        A full RAT evicts its lowest-count entry — the entry closest
        to "cold", and the one whose return to the (stale, saturated)
        sketch path costs the fewest spurious mitigations.
        """
        if len(bank.rat) >= bank.rat_entries:
            victim = min(bank.rat, key=bank.rat.__getitem__)
            del bank.rat[victim]
            self.rat_evictions += 1
        bank.rat[row_id] = 0

    def on_window_reset(self) -> None:
        for bank in self._banks:
            bank.sketch.clear()
            bank.rat.clear()

    def sram_bytes(self) -> int:
        """Sketch counters plus RAT tags+counters, all banks."""
        counter_bits = max(1, self.threshold.bit_length())
        sketch_bits = len(_HASH_MULTIPLIERS) * self.counters_per_hash
        row_bits = max(1, (self._rows_per_bank - 1).bit_length())
        rat_bits = self.rat_entries * (row_bits + counter_bits)
        per_bank_bits = sketch_bits * counter_bits + rat_bits
        total_bits = per_bank_bits * self.geometry.total_banks
        return (total_bits + 7) // 8

    def extra_stats(self):
        return {
            "counters_per_hash": self.counters_per_hash,
            "rat_hits": self.rat_hits,
            "rat_evictions": self.rat_evictions,
            "sketch_mitigations": self.sketch_mitigations,
            "rat_mitigations": self.rat_mitigations,
        }


@register_tracker(
    "comet",
    summary="per-bank count-min sketch + recent-aggressor table (CoMeT)",
    params={
        "counters_per_hash": Param(
            int,
            help="CMS width per hash per bank (default: paper scaling)",
            bounds=BANK_SIZE,
        ),
        "rat_entries": Param(
            int, 32, "recent-aggressor table entries per bank", bounds=BANK_SIZE
        ),
    },
)
def _comet_from_context(
    ctx: SystemConfig,
    counters_per_hash: Optional[int] = None,
    rat_entries: int = 32,
) -> CometTracker:
    return CometTracker(
        ctx.geometry,
        trh=ctx.trh,
        counters_per_hash=counters_per_hash,
        rat_entries=rat_entries,
    )
