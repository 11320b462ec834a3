"""§6.8: power analysis — DRAM overhead and SRAM structure power.

Two results to reproduce: (1) the extra DRAM accesses for RCT traffic
and mitigation cost ~0.2% of DRAM power; (2) the GCT and RCC cost
~10.6 mW and ~8 mW respectively at 22 nm (negligible next to the
multi-watt DRAM subsystem).
"""

import pytest

from _common import run_entry


def test_sec68_power_overheads(benchmark):
    payload = run_entry(benchmark, "sec68")
    overheads = payload["dram_overhead_percent"]
    mean_overhead = payload["dram_overhead_mean_percent"]
    gct_mw, rcc_mw = payload["gct_mw"], payload["rcc_mw"]

    print("\n=== §6.8: DRAM power overhead of Hydra (%) ===")
    for name, pct in overheads.items():
        print(f"{name:<12} {pct:>8.3f}")
    print(f"{'AVERAGE':<12} {mean_overhead:>8.3f}   (paper: ~0.2%)")

    print(
        f"SRAM power: GCT={gct_mw:.1f} mW, RCC={rcc_mw:.1f} mW, "
        f"total={gct_mw + rcc_mw:.1f} mW "
        "(paper: 10.6 / 8.0 / 18.6)"
    )

    # Shape: DRAM overhead well under 2%, SRAM power in tens of mW.
    assert mean_overhead < 2.0
    assert mean_overhead >= 0.0
    assert gct_mw + rcc_mw == pytest.approx(18.6, rel=0.4)
