"""Figure 2: CRA slowdown versus metadata-cache size.

Runs CRA with 64 / 128 / 256 KB (full-scale-equivalent) counter caches
across all 36 workloads. The paper's result: CRA stays badly slow even
with a 4x larger cache (25.8% -> 16.8% average slowdown), because
row-granular access streams have too little spatial locality for a
line-granularity cache.
"""

from _common import print_comparison, run_entry


CACHE_SIZES_KB = (64, 128, 256)


def test_fig2_cra_metadata_cache_sweep(benchmark):
    payload = run_entry(benchmark, "fig2")

    for size_kb in CACHE_SIZES_KB:
        print_comparison(
            payload[f"cra_{size_kb}kb"],
            f"Figure 2: CRA with {size_kb} KB metadata cache",
        )

    slowdowns = {
        kb: payload[f"cra_{kb}kb"]["suite_slowdowns"]["ALL(36)"]
        for kb in CACHE_SIZES_KB
    }
    print(f"\nCRA average slowdown by cache size: {slowdowns}")

    # Shape: significant average slowdown at 64 KB, monotonically
    # relieved (but not fixed) by bigger caches.
    assert slowdowns[64] > 8.0
    assert slowdowns[64] >= slowdowns[128] >= slowdowns[256]
    assert slowdowns[256] > 3.0  # still far from free
