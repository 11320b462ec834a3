"""Figure 6: where activation-count updates are satisfied.

For every workload, the fraction of updates handled by (a) the GCT
alone, (b) an RCC hit, (c) an RCT access to DRAM. The paper's averages
are 90.7% / 9.0% / 0.3% — the GCT's filtering is what makes the
DRAM-backed design viable.
"""

from _common import run_entry


def test_fig6_update_distribution(benchmark):
    payload = run_entry(benchmark, "fig6")
    distributions = payload["per_workload"]
    means = payload["averages"]

    print("\n=== Figure 6: distribution of count updates (%) ===")
    print(f"{'workload':<12} {'GCT-only':>9} {'RCC-hit':>9} {'RCT(DRAM)':>10}")
    for name, dist in distributions.items():
        print(
            f"{name:<12} {100 * dist['gct_only']:>9.1f} "
            f"{100 * dist['rcc_hit']:>9.1f} "
            f"{100 * dist['rct_access']:>10.2f}"
        )
    print(
        f"{'AVERAGE':<12} {100 * means['gct_only']:>9.1f} "
        f"{100 * means['rcc_hit']:>9.1f} {100 * means['rct_access']:>10.2f}"
        "   (paper: 90.7 / 9.0 / 0.3)"
    )

    # Shape: GCT dominates, DRAM accesses are rare.
    assert means["gct_only"] > 0.85
    assert means["rct_access"] < 0.03
    assert abs(sum(means.values()) - 1.0) < 1e-6
    # parest (5882 hot rows) must use per-row tracking heavily;
    # deepsjeng (no hot rows, huge footprint) must not.
    assert distributions["parest"]["rcc_hit"] > 0.1
    assert distributions["deepsjeng"]["gct_only"] > 0.99
