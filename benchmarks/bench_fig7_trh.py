"""Figure 7: Hydra's slowdown as T_RH drops to 250 and 125.

Structures scale proportionally (2x at 250, 4x at 125), yet slowdown
grows — partly tracking, partly sheer mitigation activity. The paper
reports 0.7% -> 1.6% -> 4% averages, with GUPS hit hardest.
"""

from _common import print_slowdown_rows, run_entry


THRESHOLDS = ("500", "250", "125")


def test_fig7_trh_sensitivity(benchmark):
    payload = run_entry(benchmark, "fig7")

    print("\n=== Figure 7: slowdown (%) vs T_RH ===")
    print_slowdown_rows(payload, "T_RH", {trh: trh for trh in THRESHOLDS})
    print("(paper ALL(36): 0.7 / 1.6 / 4.0)")

    # Shape: monotonically worse as the threshold falls.
    all36 = [payload[trh]["ALL(36)"] for trh in THRESHOLDS]
    assert all36[0] < all36[1] < all36[2]
    assert all36[0] < 2.0
    assert all36[2] > 1.5
    # GUPS suffers more at 125 than at 500.
    assert payload["125"]["GUPS(1)"] > payload["500"]["GUPS(1)"]
