"""§6.8: power analysis — DRAM overhead and SRAM structure power.

Two results to reproduce: (1) the extra DRAM accesses for RCT traffic
and mitigation cost ~0.2% of DRAM power; (2) the GCT and RCC cost
~10.6 mW and ~8 mW respectively at 22 nm (negligible next to the
multi-watt DRAM subsystem).
"""

import numpy as np
import pytest

from _common import bench_config, record_result

from repro.analysis.sram_power import hydra_sram_power
from repro.core.config import HydraConfig
from repro.sim.sweep import ExperimentRunner
from repro.workloads.characteristics import all_names


def test_sec68_power_overheads(benchmark):
    config = bench_config()
    runner = ExperimentRunner(config)

    def run_all():
        overheads = {}
        for name in all_names():
            base = runner.run("baseline", name)
            hydra = runner.run("hydra", name)
            if base.dram_power_w > 0:
                overheads[name] = 100.0 * (
                    hydra.dram_power_w / base.dram_power_w - 1.0
                )
        return overheads

    overheads = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print("\n=== §6.8: DRAM power overhead of Hydra (%) ===")
    for name, pct in overheads.items():
        print(f"{name:<12} {pct:>8.3f}")
    mean_overhead = float(np.mean(list(overheads.values())))
    print(f"{'AVERAGE':<12} {mean_overhead:>8.3f}   (paper: ~0.2%)")

    gct, rcc = hydra_sram_power(HydraConfig())
    print(
        f"SRAM power: GCT={gct.total_mw:.1f} mW, RCC={rcc.total_mw:.1f} mW, "
        f"total={gct.total_mw + rcc.total_mw:.1f} mW "
        "(paper: 10.6 / 8.0 / 18.6)"
    )

    # Shape: DRAM overhead well under 2%, SRAM power in tens of mW.
    assert mean_overhead < 2.0
    assert mean_overhead >= 0.0
    assert gct.total_mw + rcc.total_mw == pytest.approx(18.6, rel=0.4)

    record_result(
        "sec68_power",
        {
            "dram_overhead_percent": {
                k: round(v, 4) for k, v in overheads.items()
            },
            "dram_overhead_mean_percent": round(mean_overhead, 4),
            "gct_mw": round(gct.total_mw, 2),
            "rcc_mw": round(rcc.total_mw, 2),
        },
    )
