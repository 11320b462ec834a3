"""Figure 9: sensitivity to GCT capacity (16K / 32K / 64K entries).

Halving the GCT doubles the row-group size, so groups saturate faster
and more rows fall through to per-row tracking. The paper: 16K hurts
(GUPS dramatically), 32K is the sweet spot, 64K buys little more.
"""

from _common import print_slowdown_rows, run_entry


GCT_SIZES = (16384, 32768, 65536)


def test_fig9_gct_capacity(benchmark):
    payload = run_entry(benchmark, "fig9")

    print("\n=== Figure 9: slowdown (%) vs GCT entries (full-scale) ===")
    print_slowdown_rows(
        payload, "GCT", {str(e): f"{e // 1024}K" for e in GCT_SIZES}
    )

    all36 = {e: payload[str(e)]["ALL(36)"] for e in GCT_SIZES}
    # Shape: smaller GCT is strictly worse; 32K->64K gains are small.
    assert all36[16384] > all36[32768] >= all36[65536]
    assert all36[16384] > 1.5 * all36[32768]
    assert all36[32768] - all36[65536] < 1.0
