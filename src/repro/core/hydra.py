"""The Hydra hybrid tracker (the paper's core contribution, §4).

Every activation takes one of three paths (Figure 4):

1. **GCT-only** (common case, ~90.7%): the row-group's counter is
   below T_G; increment it and stop. If this increment *reaches* T_G,
   all RCT entries of the group are initialized to T_G (two line reads
   plus two line writes of metadata traffic).
2. **RCC hit** (~9.0%): the group is saturated, and the row's private
   counter is cached on-chip; increment it locally. Reaching T_H
   issues a mitigation and resets the counter.
3. **RCT access** (~0.3%): as (2) but the counter must be fetched from
   DRAM and installed in the RCC, writing back a (dirty) victim.

The rows that store the RCT itself are guarded by a dedicated SRAM
counter array (RIT-ACT, §5.2.2) so an adversary cannot hammer the
counter rows unseen.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.config import HydraConfig
from repro.core.gct import GroupCountTable
from repro.core.randomize import FeistelPermutation
from repro.core.rcc import RowCountCache
from repro.core.rct import RowCountTable
from repro.trackers.base import ActivationTracker, MetaAccess, TrackerResponse
from repro.trackers.registry import (
    KB_SIZE,
    RCC_ENTRY_BYTES,
    SYSTEM_SIZE,
    Param,
    register_tracker,
)

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig


@dataclass
class HydraStats:
    """Per-run accounting (drives Figure 6 and the power analysis)."""

    gct_only: int = 0
    rcc_hits: int = 0
    rct_accesses: int = 0
    group_inits: int = 0
    mitigations: int = 0
    meta_read_lines: int = 0
    meta_write_lines: int = 0
    rit_act_activations: int = 0
    window_resets: int = 0

    @property
    def total_updates(self) -> int:
        return self.gct_only + self.rcc_hits + self.rct_accesses

    def distribution(self) -> Dict[str, float]:
        """Fraction of activation updates satisfied at each level."""
        total = self.total_updates
        if total == 0:
            return {"gct_only": 0.0, "rcc_hit": 0.0, "rct_access": 0.0}
        return {
            "gct_only": self.gct_only / total,
            "rcc_hit": self.rcc_hits / total,
            "rct_access": self.rct_accesses / total,
        }


class HydraTracker(ActivationTracker):
    """Hybrid GCT + RCC + RCT activation tracker."""

    name = "hydra"

    def __init__(self, config: Optional[HydraConfig] = None) -> None:
        # A dataclass default argument would be one instance shared by
        # every default-constructed tracker; build a fresh one instead.
        if config is None:
            config = HydraConfig()
        self.config = config
        self.th = config.th
        self.tg = config.tg
        self._group_size = config.group_size
        self._group_mask = ~(config.group_size - 1)
        self.gct: Optional[GroupCountTable] = (
            GroupCountTable(config.gct_entries, config.tg, config.group_size)
            if config.enable_gct
            else None
        )
        self.rcc: Optional[RowCountCache] = (
            RowCountCache(config.rcc_entries, config.rcc_ways)
            if config.enable_rcc
            else None
        )
        counter_bytes = max(1, (self.th.bit_length() + 7) // 8)
        self.rct = RowCountTable(config.geometry, counter_bytes=counter_bytes)
        self._permutation: Optional[FeistelPermutation] = (
            FeistelPermutation(config.geometry.total_rows, config.mapping_seed)
            if config.randomize_mapping
            else None
        )
        self._rit_act: Dict[int, int] = {}
        self.stats = HydraStats()
        # Scalar copies for the per-activation path: the meta-row guard
        # runs on every single activation, so it reads two ints off
        # ``self`` instead of calling into the RCT. Likewise the GCT's
        # counter array and shift are hoisted here so the ~90% common
        # case is a direct array probe; ``GroupCountTable.reset`` keeps
        # the backing array's identity, so the reference stays valid
        # across window resets.
        self._rows_per_bank = config.geometry.rows_per_bank
        self._meta_base_local = self.rct.meta_base_local
        self._gct_counts = self.gct._counts if self.gct is not None else None
        self._gct_shift = (
            self.gct._group_shift if self.gct is not None else 0
        )
        if not config.enable_gct:
            self.name = "hydra-nogct"
        elif not config.enable_rcc:
            self.name = "hydra-norcc"

    # ------------------------------------------------------------------
    # ActivationTracker interface
    # ------------------------------------------------------------------

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        # Inlined self.rct.is_meta_row(row_id) — this guard runs on
        # every activation.
        if row_id % self._rows_per_bank >= self._meta_base_local:
            return self._count_meta_row_activation(row_id)
        # Footnote 4: with randomized mapping, all internal indexing
        # (GCT entry, RCC tag, RCT slot) uses the permuted id, while
        # mitigations still name the physical row in hand.
        permutation = self._permutation
        key = permutation.permute(row_id) if permutation is not None else row_id
        gct = self.gct
        if gct is not None:
            # ``gct.update(key)`` inlined: the below-T_G increment is
            # the ~90% common case of the whole tracker, worth a direct
            # array probe instead of a method call.
            counts = self._gct_counts
            group = key >> self._gct_shift
            value = counts[group]
            tg = self.tg
            if value < tg:
                value += 1
                counts[group] = value
                if value < tg:
                    self.stats.gct_only += 1
                    return None
                # This update saturated the group: switch it to
                # per-row tracking by initializing its RCT entries.
                gct.saturated_groups += 1
                stats = self.stats
                stats.gct_only += 1
                stats.group_inits += 1
                first_row = key & self._group_mask
                meta = self.rct.init_group(first_row, self._group_size, tg)
                self._account_meta(meta)
                return TrackerResponse(meta_accesses=tuple(meta))
            # value >= T_G: group saturated on an earlier update.
        return self._per_row_update(key, row_id)

    def on_window_reset(self) -> None:
        """Reset SRAM structures every tracking window (§4.6)."""
        if self.gct is not None:
            self.gct.reset()
        else:
            # Without a GCT there is no lazy re-initialization path, so
            # the per-row state itself must be reset (models entry
            # versioning; costless in time, like the paper's design).
            self.rct.reset_all()
        if self.rcc is not None:
            self.rcc.reset()
        if self._permutation is not None:
            # Footnote 4: change the cipher key every window so group
            # membership cannot be learned across windows.
            self._permutation = self._permutation.rekeyed(
                self.config.mapping_seed + self.stats.window_resets + 1
            )
        self._rit_act.clear()
        self.stats.window_resets += 1

    def sram_bytes(self) -> int:
        total = 0
        if self.gct is not None:
            total += self.gct.sram_bytes()
        if self.rcc is not None:
            total += self.rcc.sram_bytes()
        total += self.rct.total_meta_rows  # 1-byte RIT-ACT counters
        return total

    def dram_reserved_bytes(self) -> int:
        return self.rct.dram_reserved_bytes()

    @property
    def mitigations(self) -> int:
        return self.stats.mitigations

    def extra_stats(self) -> Dict[str, object]:
        """Figure 6's distribution plus metadata-path counters."""
        return {
            "distribution": self.stats.distribution(),
            "group_inits": self.stats.group_inits,
            "rit_act_activations": self.stats.rit_act_activations,
        }

    def obs_snapshot(self) -> Dict[str, float]:
        """Cumulative counters for the per-window series recorder.

        ``HydraStats`` survives window resets (only the SRAM
        structures clear), so every field differences cleanly into
        per-window deltas: the three update levels reproduce Figure 6
        window by window, and ``rcc_hits`` vs ``rct_accesses`` gives
        the per-window RCC hit rate.
        """
        stats = self.stats
        return {
            "tracker_mitigations": float(stats.mitigations),
            "hydra_gct_only": float(stats.gct_only),
            "hydra_rcc_hits": float(stats.rcc_hits),
            "hydra_rct_accesses": float(stats.rct_accesses),
            "hydra_group_inits": float(stats.group_inits),
            "hydra_meta_read_lines": float(stats.meta_read_lines),
            "hydra_meta_write_lines": float(stats.meta_write_lines),
            "hydra_rit_act_activations": float(stats.rit_act_activations),
        }

    def publish_metrics(self, registry) -> None:
        """Publish tracker totals plus each structure's own metrics."""
        super().publish_metrics(registry)
        for name, value in self.obs_snapshot().items():
            if name == "tracker_mitigations":
                continue  # already published by the base class
            registry.counter(name, f"HydraStats.{name}").inc(int(value))
        if self.gct is not None:
            self.gct.publish_metrics(registry)
        if self.rcc is not None:
            self.rcc.publish_metrics(registry)
        self.rct.publish_metrics(registry)

    # ------------------------------------------------------------------
    # Internal paths
    # ------------------------------------------------------------------

    def _per_row_update(
        self, key: int, physical_row: int
    ) -> Optional[TrackerResponse]:
        """Per-row tracking: ``key`` indexes the structures,
        ``physical_row`` is what a mitigation must refresh around
        (they differ only under randomized mapping)."""
        rcc = self.rcc
        if rcc is None:
            return self._rct_read_modify_write(key, physical_row)
        # Fused lookup + increment: one dict probe on the ~9% hit path
        # (equivalent to lookup(); write(count + 1) — see RowCountCache).
        count = rcc.increment_if_present(key)
        if count is not None:
            self.stats.rcc_hits += 1
            if count >= self.th:
                rcc.write(key, 0)
                self.stats.mitigations += 1
                return TrackerResponse(mitigate_rows=(physical_row,))
            return None
        # RCC miss: fetch the counter line from the RCT in DRAM.
        self.stats.rct_accesses += 1
        value = self.rct.read(key)
        meta = [MetaAccess(self.rct.meta_row_of(key), 1, False)]
        victim = self.rcc.install(key, value)
        if victim is not None:
            victim_key, victim_count = victim
            self.rct.write(victim_key, victim_count)
            victim_meta_row = self.rct.meta_row_of(victim_key)
            meta.append(MetaAccess(victim_meta_row, 1, False))
            meta.append(MetaAccess(victim_meta_row, 1, True))
        self._account_meta(meta)
        count = value + 1
        if count >= self.th:
            self.rcc.write(key, 0)
            self.stats.mitigations += 1
            return TrackerResponse(
                mitigate_rows=(physical_row,), meta_accesses=tuple(meta)
            )
        self.rcc.write(key, count)
        return TrackerResponse(meta_accesses=tuple(meta))

    def _rct_read_modify_write(
        self, key: int, physical_row: int
    ) -> TrackerResponse:
        """Hydra-NoRCC: every per-row update is a DRAM RMW."""
        self.stats.rct_accesses += 1
        meta_row = self.rct.meta_row_of(key)
        meta = (
            MetaAccess(meta_row, 1, False),
            MetaAccess(meta_row, 1, True),
        )
        self._account_meta(meta)
        value = self.rct.read(key) + 1
        if value >= self.th:
            self.rct.write(key, 0)
            self.stats.mitigations += 1
            return TrackerResponse(
                mitigate_rows=(physical_row,), meta_accesses=meta
            )
        self.rct.write(key, value)
        return TrackerResponse(meta_accesses=meta)

    def _count_meta_row_activation(self, row_id: int) -> Optional[TrackerResponse]:
        """RIT-ACT: SRAM counters guarding the RCT's own DRAM rows."""
        self.stats.rit_act_activations += 1
        count = self._rit_act.get(row_id, 0) + 1
        if count >= self.th:
            self._rit_act[row_id] = 0
            self.stats.mitigations += 1
            return TrackerResponse(mitigate_rows=(row_id,))
        self._rit_act[row_id] = count
        return None

    def _account_meta(self, meta) -> None:
        for access in meta:
            if access.is_write:
                self.stats.meta_write_lines += access.n_lines
            else:
                self.stats.meta_read_lines += access.n_lines


# ----------------------------------------------------------------------
# Registry entries
# ----------------------------------------------------------------------

_HYDRA_PARAMS = {
    "gct_entries": Param(
        int, help="full-scale GCT entries (default 32768 x structure scale)",
        bounds=SYSTEM_SIZE,
    ),
    "rcc_entries": Param(
        int, help="full-scale RCC entries (default 8192 x structure scale)",
        bounds=SYSTEM_SIZE,
    ),
    "rcc_kb": Param(
        int,
        help="full-scale RCC size in KB (3 B/entry, Table 4; alternative"
        " to rcc_entries)",
        bounds=KB_SIZE,
    ),
    "rcc_ways": Param(int, help="RCC associativity", bounds=SYSTEM_SIZE),
    "tg_fraction": Param(float, help="T_G as a fraction of T_H"),
    "enable_gct": Param(bool, True, "disable for the Hydra-NoGCT ablation"),
    "enable_rcc": Param(bool, True, "disable for the Hydra-NoRCC ablation"),
    "randomize_mapping": Param(
        bool, False, "footnote-4 keyed row-address randomization"
    ),
}


def _hydra_from_context(
    ctx: SystemConfig,
    gct_entries: Optional[int] = None,
    rcc_entries: Optional[int] = None,
    rcc_kb: Optional[int] = None,
    rcc_ways: Optional[int] = None,
    tg_fraction: Optional[float] = None,
    enable_gct: bool = True,
    enable_rcc: bool = True,
    randomize_mapping: bool = False,
) -> HydraTracker:
    """Build a Hydra instance from the config + full-scale overrides."""
    if rcc_kb is not None:
        if rcc_entries is not None:
            raise ValueError("give rcc_entries or rcc_kb, not both")
        ways = rcc_ways if rcc_ways is not None else ctx.rcc_ways
        entries = (rcc_kb * 1024 // RCC_ENTRY_BYTES) // ways * ways
        rcc_entries = max(ways, entries)
    overrides: Dict[str, object] = {}
    if gct_entries is not None:
        overrides["gct_entries_full"] = gct_entries
    if rcc_entries is not None:
        overrides["rcc_entries_full"] = rcc_entries
    if rcc_ways is not None:
        overrides["rcc_ways"] = rcc_ways
    if tg_fraction is not None:
        overrides["tg_fraction"] = tg_fraction
    if overrides:
        ctx = replace(ctx, **overrides)
    return HydraTracker(
        ctx.hydra_config(
            enable_gct=enable_gct,
            enable_rcc=enable_rcc,
            randomize_mapping=randomize_mapping,
        )
    )


register_tracker(
    "hydra",
    summary="hybrid GCT + RCC + RCT tracking (this paper)",
    params=_HYDRA_PARAMS,
)(_hydra_from_context)


@register_tracker(
    "hydra-nogct", summary="Figure-8 ablation: per-row tracking only"
)
def _hydra_nogct_from_context(ctx: SystemConfig) -> HydraTracker:
    return _hydra_from_context(ctx, enable_gct=False)


@register_tracker(
    "hydra-norcc", summary="Figure-8 ablation: no row-count cache"
)
def _hydra_norcc_from_context(ctx: SystemConfig) -> HydraTracker:
    return _hydra_from_context(ctx, enable_rcc=False)


@register_tracker(
    "hydra-randomized", summary="Hydra with footnote-4 randomized mapping"
)
def _hydra_randomized_from_context(ctx: SystemConfig) -> HydraTracker:
    tracker = _hydra_from_context(ctx, randomize_mapping=True)
    tracker.name = "hydra-randomized"
    return tracker
