"""Table 5: total SRAM for the 32 GB system, DDR4 vs DDR5.

Per-bank trackers (Graphene/TWiCE/CAT) double when DDR5 doubles the
bank count; D-CBF and Hydra do not. Hydra's 56.5 KB is an order of
magnitude below every alternative on both technologies.
"""

import pytest

from _common import run_entry


def test_table5_total_sram(benchmark):
    payload = run_entry(benchmark, "table5")

    print("\n=== Table 5: total SRAM, 32GB / 2 ranks (KB) ===")
    print(f"{'scheme':<12} {'DDR4':>10} {'DDR5':>10}")
    for scheme, cols in payload.items():
        print(f"{scheme:<12} {cols['ddr4_kib']:>10.1f} {cols['ddr5_kib']:>10.1f}")

    ddr4 = {scheme: cols["ddr4_kib"] for scheme, cols in payload.items()}
    ddr5 = {scheme: cols["ddr5_kib"] for scheme, cols in payload.items()}
    assert ddr4["Hydra"] == pytest.approx(56.5, rel=0.01)
    assert ddr4["Graphene"] == pytest.approx(680, rel=0.01)
    for scheme in ("Graphene", "TWiCE", "CAT"):
        assert ddr5[scheme] == 2 * ddr4[scheme]
    for scheme in ("D-CBF", "Hydra"):
        assert ddr5[scheme] == ddr4[scheme]
    for scheme in ("Graphene", "TWiCE", "CAT", "D-CBF"):
        assert ddr4[scheme] > 10 * ddr4["Hydra"]
