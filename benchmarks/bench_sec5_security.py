"""§5: security verification throughput across attack patterns.

Runs the Theorem-1 oracle check for every adaptive attack the paper
discusses, at the benchmark scale, and reports verified activation
throughput. All patterns must verify SECURE.
"""

from _common import bench_config, run_entry


def test_sec5_attack_verification(benchmark):
    th = bench_config().hydra_config().th
    payload = run_entry(benchmark, "sec5")

    print("\n=== §5: Theorem-1 verification ===")
    print(
        f"{'pattern':<14} {'status':<8} {'ACTs':>9} {'mitig.':>7} "
        f"{'max-unmitigated':>16}"
    )
    for name, row in payload.items():
        status = "SECURE" if row["secure"] else "VIOLATED"
        print(
            f"{name:<14} {status:<8} {row['activations']:>9} "
            f"{row['mitigations']:>7} {row['max_unmitigated']:>11}/{th}"
        )
        assert row["secure"], name
        assert row["max_unmitigated"] <= th

    # Hammering patterns must actually draw mitigations.
    for name in ("single-sided", "double-sided", "half-double", "thrash"):
        assert payload[name]["mitigations"] > 0, name
