"""Configuration for the Hydra hybrid tracker.

Defaults reproduce the paper's baseline design point (§4.3, §6):
T_RH = 500, so the Hydra tracking threshold T_H = 250, GCT threshold
T_G = 200 (80% of T_H), a 32K-entry GCT and an 8K-entry RCC for the
32 GB two-channel system — i.e. 128 rows per row-group.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.dram.timing import PAPER_GEOMETRY, DramGeometry


#: The lowest T_RH the system accepts: Hydra, Graphene and START need
#: T_RH/2 >= 2 to size their thresholds.
MIN_TRH = 4


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class HydraConfig:
    """Design parameters of one Hydra instance.

    ``enable_gct`` / ``enable_rcc`` exist for the Figure-8 ablations
    (Hydra-NoGCT, Hydra-NoRCC).
    """

    geometry: DramGeometry = PAPER_GEOMETRY
    #: RowHammer threshold the design must defend (T_RH).
    trh: int = 500
    #: Entries in the Group-Count Table.
    gct_entries: int = 32768
    #: Entries in the Row-Count Cache.
    rcc_entries: int = 8192
    #: RCC associativity.
    rcc_ways: int = 16
    #: T_G as a fraction of T_H (paper default 80%).
    tg_fraction: float = 0.80
    #: Victim-refresh blast radius (rows refreshed on each side).
    blast_radius: int = 2
    enable_gct: bool = True
    enable_rcc: bool = True
    #: Footnote 4: pass row addresses through a keyed block cipher
    #: before indexing the GCT/RCT, re-keyed every window, hiding
    #: group membership from adversaries. Performance is within ~0.1%
    #: of the static mapping (paper's finding, reproduced in tests).
    randomize_mapping: bool = False
    #: Base key for the randomized mapping (re-keyed per window).
    mapping_seed: int = 0x48594452  # "HYDR"

    def __post_init__(self) -> None:
        if self.trh < MIN_TRH:
            raise ValueError(f"T_RH must be at least {MIN_TRH}")
        if not _is_power_of_two(self.gct_entries):
            raise ValueError("gct_entries must be a power of two")
        if self.rcc_entries <= 0 or self.rcc_ways <= 0:
            raise ValueError("RCC sizing must be positive")
        if self.rcc_entries % self.rcc_ways:
            raise ValueError("rcc_entries must be divisible by rcc_ways")
        if not 0.0 < self.tg_fraction < 1.0:
            raise ValueError("tg_fraction must be in (0, 1)")
        if self.geometry.total_rows % self.gct_entries:
            raise ValueError("gct_entries must divide total rows")
        if self.blast_radius < 0:
            raise ValueError("blast_radius must be non-negative")
        if self.tg < 1:
            raise ValueError("T_G computes to < 1; raise tg_fraction or trh")

    @property
    def th(self) -> int:
        """Hydra tracking threshold T_H = T_RH / 2 (§4.6)."""
        return self.trh // 2

    @property
    def tg(self) -> int:
        """GCT saturation threshold T_G."""
        return int(round(self.th * self.tg_fraction))

    @property
    def group_size(self) -> int:
        """Rows per row-group (rows sharing one GCT entry)."""
        return self.geometry.total_rows // self.gct_entries

    @property
    def rcc_sets(self) -> int:
        return self.rcc_entries // self.rcc_ways

    def scaled(self, scale: float) -> "HydraConfig":
        """Shrink structures with the memory (DESIGN.md §3).

        Thresholds and the group size are invariant; GCT/RCC entry
        counts shrink with the row count so every rows-to-entries
        ratio is preserved.
        """
        if scale <= 0 or scale > 1:
            raise ValueError("scale must be in (0, 1]")
        geometry = self.geometry.scaled(scale)
        ratio = geometry.total_rows / self.geometry.total_rows
        gct = max(1, int(self.gct_entries * ratio))
        gct = 1 << (gct.bit_length() - 1)  # floor to a power of two
        rcc = max(self.rcc_ways, int(self.rcc_entries * ratio))
        rcc -= rcc % self.rcc_ways
        return replace(
            self,
            geometry=geometry,
            gct_entries=gct,
            rcc_entries=max(self.rcc_ways, rcc),
        )
