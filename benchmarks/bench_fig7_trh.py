"""Figure 7: Hydra's slowdown as T_RH drops to 250 and 125.

Structures scale proportionally (2x at 250, 4x at 125), yet slowdown
grows — partly tracking, partly sheer mitigation activity. The paper
reports 0.7% -> 1.6% -> 4% averages, with GUPS hit hardest.
"""

from _common import bench_config, record_result, runner_for

THRESHOLDS = (500, 250, 125)


def test_fig7_trh_sensitivity(benchmark):
    def run_sweep():
        runner = runner_for(bench_config())
        return {
            trh: runner.compare(f"hydra@trh={trh}").slowdowns()
            for trh in THRESHOLDS
        }

    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    print("\n=== Figure 7: slowdown (%) vs T_RH ===")
    suites = list(next(iter(results.values())))
    print(f"{'T_RH':<8}" + "".join(f"{s:>12}" for s in suites))
    for trh in THRESHOLDS:
        print(
            f"{trh:<8}"
            + "".join(f"{results[trh][s]:>12.2f}" for s in suites)
        )
    print("(paper ALL(36): 0.7 / 1.6 / 4.0)")

    # Shape: monotonically worse as the threshold falls.
    all36 = [results[trh]["ALL(36)"] for trh in THRESHOLDS]
    assert all36[0] < all36[1] < all36[2]
    assert all36[0] < 2.0
    assert all36[2] > 1.5
    # GUPS suffers more at 125 than at 500.
    assert results[125]["GUPS(1)"] > results[500]["GUPS(1)"]

    record_result(
        "fig7_trh_sensitivity",
        {str(trh): {k: round(v, 3) for k, v in results[trh].items()}
         for trh in THRESHOLDS},
    )
