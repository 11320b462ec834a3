"""CAT: Counter-based Adaptive Tree tracking (Seyedzadeh et al., ISCA 2018).

A per-bank binary tree over the row-address space. Tracking starts
coarse — one counter covering many rows — and *adapts*: when a node's
counter crosses its split threshold, the node is split and its two
children each cover half the range, drawing fresh counters from a
finite pool. Hot regions thus earn fine-grained (eventually per-row)
counters while cold regions stay cheap.

Soundness comes from inheritance: a child starts with its parent's
count, so every node's counter is always >= the true activation count
of every row it covers (the same over-approximation argument as
Hydra's GCT, applied hierarchically). Mitigation fires when a
*single-row* leaf reaches T_RH/2; multi-row leaves split well before
that (at ``split_fraction`` of the mitigation threshold) so precision
arrives before the threshold does. If the counter pool is exhausted, a
saturated multi-row leaf conservatively mitigates its entire range —
the securely-degraded mode that CAT's sizing (Table 1: ~1.5 MB/rank at
T_RH=500) is provisioned to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.dram.timing import DramGeometry, DramTiming
from repro.trackers.base import ActivationTracker, TrackerResponse
from repro.trackers.registry import BANK_SIZE, Param, register_tracker

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig


@dataclass
class _Node:
    """One tree node covering rows [lo, hi) of a bank."""

    lo: int
    hi: int
    count: int = 0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def span(self) -> int:
        return self.hi - self.lo


class _BankTree:
    """CAT state for one bank."""

    def __init__(self, rows: int, counter_budget: int) -> None:
        self.root = _Node(0, rows)
        self.counters_used = 1
        self.counter_budget = max(1, counter_budget)

    def leaf_for(self, row: int) -> _Node:
        node = self.root
        while not node.is_leaf:
            mid = (node.lo + node.hi) // 2
            node = node.left if row < mid else node.right
        return node

    def try_split(self, node: _Node) -> bool:
        if node.span <= 1 or self.counters_used + 2 > self.counter_budget:
            return False
        mid = (node.lo + node.hi) // 2
        # Children inherit the parent's count: conservative for every
        # row either child covers.
        node.left = _Node(node.lo, mid, node.count)
        node.right = _Node(mid, node.hi, node.count)
        self.counters_used += 2
        return True

    def reset(self) -> None:
        rows = self.root.hi
        self.root = _Node(0, rows)
        self.counters_used = 1


class CatTracker(ActivationTracker):
    """Adaptive-tree tracker with victim-refresh mitigation."""

    name = "cat"

    def __init__(
        self,
        geometry: DramGeometry,
        trh: int = 500,
        timing: DramTiming = DramTiming(),
        split_fraction: float = 0.25,
        counters_per_bank: Optional[int] = None,
    ) -> None:
        if not 0.0 < split_fraction < 1.0:
            raise ValueError("split_fraction must be in (0, 1)")
        self.geometry = geometry
        self.trh = trh
        self.threshold = trh // 2
        self.split_threshold = max(1, int(self.threshold * split_fraction))
        if counters_per_bank is None:
            # Sized per the Table 1 calibration: ~4 bytes per counter.
            from repro.trackers.storage import cat_bytes_per_rank

            per_rank = cat_bytes_per_rank(trh) // 4
            counters_per_bank = max(64, per_rank // geometry.banks_per_rank)
        self._rows_per_bank = geometry.rows_per_bank
        self._trees = [
            _BankTree(geometry.rows_per_bank, counters_per_bank)
            for _ in range(geometry.total_banks)
        ]
        self.mitigations = 0
        self.range_mitigations = 0
        self.splits = 0

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        bank = row_id // self._rows_per_bank
        local = row_id % self._rows_per_bank
        tree = self._trees[bank]
        leaf = tree.leaf_for(local)
        leaf.count += 1
        # Adapt: refine hot multi-row leaves before they get dangerous.
        while (
            leaf.span > 1
            and leaf.count >= self.split_threshold
            and tree.try_split(leaf)
        ):
            self.splits += 1
            mid = (leaf.lo + leaf.hi) // 2
            leaf = leaf.left if local < mid else leaf.right
        if leaf.count < self.threshold:
            return None
        if leaf.span == 1:
            leaf.count = 0
            self.mitigations += 1
            return TrackerResponse(
                mitigate_rows=(bank * self._rows_per_bank + leaf.lo,)
            )
        # Counter pool exhausted: the leaf cannot be refined, so it
        # degrades securely to mitigate-on-every-activation — the
        # counter clamps at the threshold and each further activation
        # of any row the leaf covers refreshes that row's neighbours
        # immediately. Sound (no row accumulates unmitigated count)
        # but expensive, which is exactly why CAT is provisioned with
        # the Table 1 counter budget.
        leaf.count = self.threshold
        self.range_mitigations += 1
        self.mitigations += 1
        return TrackerResponse(mitigate_rows=(row_id,))

    def on_window_reset(self) -> None:
        for tree in self._trees:
            tree.reset()

    def sram_bytes(self) -> int:
        budget = self._trees[0].counter_budget
        return 4 * budget * self.geometry.total_banks

    def counters_in_use(self) -> int:
        return sum(tree.counters_used for tree in self._trees)


@register_tracker(
    "cat",
    summary="adaptive counter trees splitting hot ranges (CAT)",
    params={
        "split_fraction": Param(
            float, 0.25, "leaf-split threshold as a fraction of T_H"
        ),
        "counters_per_bank": Param(
            int, help="tree counter budget per bank (default: Table 1)",
            bounds=BANK_SIZE,
        ),
    },
)
def _cat_from_context(
    ctx: SystemConfig,
    split_fraction: float = 0.25,
    counters_per_bank: Optional[int] = None,
) -> CatTracker:
    return CatTracker(
        ctx.geometry,
        trh=ctx.trh,
        timing=ctx.timing,
        split_fraction=split_fraction,
        counters_per_bank=counters_per_bank,
    )
