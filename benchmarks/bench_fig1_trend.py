"""Figure 1(a): the RowHammer threshold trend, 2014 -> DDR5.

Regenerates the T_RH-over-time series the paper opens with, plus the
log-linear projection motivating the ultra-low-threshold regime.
"""

from _common import run_entry

from repro.analysis.trends import OBSERVATIONS, projected_trh


def test_fig1a_threshold_trend(benchmark):
    payload = run_entry(benchmark, "fig1a")
    rows = payload["rows"]

    print("\n=== Figure 1(a): Row-Hammer Threshold over time ===")
    print(f"{'year':<6} {'technology':<18} {'T_RH':>8}")
    for row in rows:
        print(f"{row['year']:<6} {row['technology']:<18} {row['trh']:>8}")
    print(
        f"years until T_RH=500 (from {OBSERVATIONS[-1].year}): "
        f"{payload['years_until_trh500']:.1f}"
    )

    # Shape: strictly decreasing observations, >10x drop 2014->2020,
    # and the projection lands below LPDDR4's 4.8K.
    observed = [row["trh"] for row in rows[:-1]]
    assert observed == sorted(observed, reverse=True)
    assert observed[0] / observed[-1] > 10
    assert rows[-1]["trh"] < 4800
    assert projected_trh(2030) < projected_trh(2024)
