"""Hydra storage accounting (Table 4).

Computes the SRAM cost of a Hydra configuration at *full* scale, plus
the reserved-DRAM footprint, reproducing the paper's 56.5 KB total for
the 32 GB baseline system: 32 KB GCT + 24 KB RCC + 0.5 KB RIT-ACT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import HydraConfig


@dataclass(frozen=True)
class HydraStorageReport:
    """SRAM breakdown of one Hydra design point, in bytes."""

    gct_bytes: int
    rcc_bytes: int
    rit_act_bytes: int
    dram_reserved_bytes: int

    @property
    def sram_total_bytes(self) -> int:
        return self.gct_bytes + self.rcc_bytes + self.rit_act_bytes

    @property
    def sram_total_kib(self) -> float:
        return self.sram_total_bytes / 1024.0


def hydra_storage(config: Optional[HydraConfig] = None) -> HydraStorageReport:
    """Storage of a Hydra instance, following Table 4's arithmetic.

    - GCT: one counter per entry, sized to hold T_G (1 byte at the
      default T_G = 200).
    - RCC: 24 bits per entry — valid + tag (13 bits after
      set-associative index truncation) + 2-bit SRRIP + 8-bit counter.
    - RIT-ACT: one 1-byte counter per DRAM row that stores the RCT.
    """
    if config is None:
        config = HydraConfig()
    gct_entry_bytes = max(1, (config.tg.bit_length() + 7) // 8)
    gct_bytes = config.gct_entries * gct_entry_bytes if config.enable_gct else 0
    rcc_bytes = config.rcc_entries * 3 if config.enable_rcc else 0

    geometry = config.geometry
    counter_bytes = max(1, (config.th.bit_length() + 7) // 8)
    counters_per_row = geometry.row_size_bytes // counter_bytes
    meta_rows_per_bank = -(-geometry.rows_per_bank // counters_per_row)
    total_meta_rows = meta_rows_per_bank * geometry.total_banks
    return HydraStorageReport(
        gct_bytes=gct_bytes,
        rcc_bytes=rcc_bytes,
        rit_act_bytes=total_meta_rows,
        dram_reserved_bytes=total_meta_rows * geometry.row_size_bytes,
    )
