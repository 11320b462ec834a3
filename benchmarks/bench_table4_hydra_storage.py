"""Table 4: Hydra's SRAM storage breakdown for the 32 GB system.

GCT (32K x 8-bit) = 32 KB, RCC (8K x 24-bit) = 24 KB, RIT-ACT
(512 x 8-bit) = 0.5 KB; total 56.5 KB, plus a 4 MB DRAM reservation
(<0.02% of capacity).
"""

import pytest

from _common import run_entry


def test_table4_hydra_storage(benchmark):
    payload = run_entry(benchmark, "table4")

    print("\n=== Table 4: Hydra storage overhead (32GB, 2 channels) ===")
    for name in ("gct", "rcc", "rit_act", "total"):
        print(f"{name:<8} {payload[f'{name}_kib']:.1f} KB")
    reserved_fraction = payload["dram_reserved_mib"] / (32 * 1024)
    print(
        f"DRAM reservation: {payload['dram_reserved_mib']:.1f} MB "
        f"({100 * reserved_fraction:.3f}% of 32GB)"
    )

    assert payload["gct_kib"] == 32
    assert payload["rcc_kib"] == 24
    assert payload["rit_act_kib"] == 0.5
    assert payload["total_kib"] == pytest.approx(56.5)
    assert payload["dram_reserved_mib"] == 4
    assert reserved_fraction < 0.0002
