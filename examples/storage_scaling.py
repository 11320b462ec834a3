#!/usr/bin/env python3
"""Storage scaling study: why SRAM trackers break at ultra-low T_RH.

Regenerates Table 1 (per-rank storage of prior trackers), Table 4
(Hydra's breakdown), and Table 5 (whole-system totals, DDR4 vs DDR5),
and sweeps the threshold to show the inverse-scaling wall the paper's
introduction describes.

Run:  python examples/storage_scaling.py
"""

from repro.core import HydraConfig, hydra_storage
from repro.trackers.storage import (
    SCHEME_MODELS,
    hydra_bytes_total,
    storage_table,
    total_sram_table,
)

KIB = 1024


def bar(value_bytes: float, per_kib: float = 64.0, width: int = 40) -> str:
    cells = min(width, int(value_bytes / KIB / per_kib))
    return "#" * cells + ("+" if value_bytes / KIB > per_kib * width else "")


def main() -> None:
    print("=== Table 1: per-rank SRAM storage (KB), 16 GB rank ===")
    rows = storage_table()
    schemes = list(rows[0].bytes_by_scheme)
    print(f"{'T_RH':<8}" + "".join(f"{s:>10}" for s in schemes))
    for row in rows:
        print(
            f"{row.trh:<8}"
            + "".join(f"{row.bytes_by_scheme[s] / KIB:>10.0f}" for s in schemes)
        )
    print("Goal (paper): <= 64 KB per rank at every threshold.\n")

    print("=== The scaling wall (Graphene storage vs threshold) ===")
    for trh in (32000, 8000, 2000, 1000, 500, 250, 125):
        size = SCHEME_MODELS["Graphene"](trh)
        print(f"T_RH={trh:<7} {size / KIB:>8.0f} KB  {bar(size)}")
    print()

    print("=== Table 4: Hydra breakdown (32 GB system) ===")
    report = hydra_storage(HydraConfig())
    for name, size in (
        ("GCT", report.gct_bytes),
        ("RCC", report.rcc_bytes),
        ("RIT-ACT", report.rit_act_bytes),
        ("Total", report.sram_total_bytes),
    ):
        print(f"  {name:<8} {size / KIB:.1f} KB")
    print()

    print("=== Table 5: whole-system SRAM (KB), DDR4 vs DDR5 ===")
    table = total_sram_table()
    print(f"{'scheme':<12} {'DDR4':>10} {'DDR5':>10}")
    for scheme, cols in table.items():
        print(
            f"{scheme:<12} {cols['ddr4'] / KIB:>10.1f} "
            f"{cols['ddr5'] / KIB:>10.1f}"
        )
    print()

    print("=== Hydra across thresholds (structures scaled as Figure 7) ===")
    for trh in (500, 250, 125):
        print(f"T_RH={trh:<5} -> {hydra_bytes_total(trh) / KIB:>7.1f} KB")
    print(
        "\nEven 4x-scaled Hydra at T_RH=125 stays far below any prior "
        "tracker at T_RH=500."
    )


if __name__ == "__main__":
    main()
