"""Table 3: workload characteristics of the 36 synthetic traces.

The synthetic generator is the reproduction's substitute for pintool
traces (DESIGN.md §3). This benchmark regenerates every workload and
verifies its per-window row-activation statistics against the Table 3
values it was calibrated to — the fidelity check that underpins every
performance figure.
"""

import pytest

from _common import bench_config, record_result

from repro.sim.sweep import ExperimentRunner
from repro.workloads.characteristics import TABLE3
from repro.workloads.trace import characterize


def test_table3_workload_characteristics(benchmark):
    config = bench_config(n_windows=1)
    runner = ExperimentRunner(config)

    def generate_all():
        return {w.name: runner.trace_for(w.name) for w in TABLE3}

    traces = benchmark.pedantic(generate_all, rounds=1, iterations=1)

    print("\n=== Table 3: workload characteristics "
          f"(scaled x{config.scale:.5f}, per window) ===")
    print(
        f"{'workload':<12} {'uniq rows':>10} {'paper*scale':>12} "
        f"{'ACT250+':>8} {'paper*scale':>12} {'ACTs/row':>9} {'paper':>7}"
    )
    payload = {}
    for w in TABLE3:
        stats = characterize(traces[w.name])
        expected_rows = w.unique_rows * config.scale
        expected_hot = w.act250_rows * config.scale
        print(
            f"{w.name:<12} {stats.unique_rows:>10} {expected_rows:>12.0f} "
            f"{stats.act250_rows:>8} {expected_hot:>12.1f} "
            f"{stats.acts_per_row:>9.1f} {w.acts_per_row:>7.1f}"
        )
        payload[w.name] = {
            "unique_rows": stats.unique_rows,
            "act250_rows": stats.act250_rows,
            "acts_per_row": round(stats.acts_per_row, 2),
        }
        # Fidelity assertions per workload.
        assert stats.unique_rows == pytest.approx(expected_rows, rel=0.06), w.name
        assert stats.acts_per_row == pytest.approx(
            w.acts_per_row, rel=0.2, abs=1.0
        ), w.name
        if w.act250_rows * config.scale >= 8:
            assert stats.act250_rows == pytest.approx(
                expected_hot, rel=0.35
            ), w.name

    record_result("table3_workloads", payload)
