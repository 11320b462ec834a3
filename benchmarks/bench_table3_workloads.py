"""Table 3: workload characteristics of the 36 synthetic traces.

The synthetic generator is the reproduction's substitute for pintool
traces (DESIGN.md §3). This benchmark regenerates every workload and
verifies its per-window row-activation statistics against the Table 3
values it was calibrated to — the fidelity check that underpins every
performance figure.
"""

import pytest

from _common import bench_config, run_entry

from repro.workloads.characteristics import TABLE3


def test_table3_workload_characteristics(benchmark):
    scale = bench_config().scale
    payload = run_entry(benchmark, "table3")

    print("\n=== Table 3: workload characteristics "
          f"(scaled x{scale:.5f}, per window) ===")
    print(
        f"{'workload':<12} {'uniq rows':>10} {'paper*scale':>12} "
        f"{'ACT250+':>8} {'paper*scale':>12} {'ACTs/row':>9} {'paper':>7}"
    )
    for w in TABLE3:
        stats = payload[w.name]
        expected_rows = w.unique_rows * scale
        expected_hot = w.act250_rows * scale
        print(
            f"{w.name:<12} {stats['unique_rows']:>10} {expected_rows:>12.0f} "
            f"{stats['act250_rows']:>8} {expected_hot:>12.1f} "
            f"{stats['acts_per_row']:>9.1f} {w.acts_per_row:>7.1f}"
        )
        # Fidelity assertions per workload.
        assert stats["unique_rows"] == pytest.approx(
            expected_rows, rel=0.06
        ), w.name
        assert stats["acts_per_row"] == pytest.approx(
            w.acts_per_row, rel=0.2, abs=1.0
        ), w.name
        if w.act250_rows * scale >= 8:
            assert stats["act250_rows"] == pytest.approx(
                expected_hot, rel=0.35
            ), w.name
