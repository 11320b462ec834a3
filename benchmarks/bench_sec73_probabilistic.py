"""§7.3: probabilistic methods at ultra-low thresholds.

Two claims to reproduce:

1. PARA's mitigation probability "must be increased proportionately as
   T_RH is reduced, which causes significant performance overheads at
   T_RH of 1000 or lower" — the mitigation rate (and hence refresh
   traffic) scales inversely with the threshold.
2. "MRLOC and ProHIT also use probabilistic decisions, however, they
   are not secure" — the Theorem-1 oracle exhibits threshold
   violations for both, while PARA's *statistical* guarantee and
   Hydra's deterministic one hold at their design points.
"""

from _common import run_entry


def test_sec73_para_probability_scaling(benchmark):
    payload = run_entry(benchmark, "sec73_para")
    probabilities = {int(trh): row["p"] for trh, row in payload.items()}

    print("\n=== §7.3: PARA mitigation probability vs T_RH ===")
    print(f"{'T_RH':<8} {'p':>10} {'mitigations per 1M ACTs':>25}")
    for trh, row in payload.items():
        print(f"{trh:<8} {row['p']:>10.6f} {row['mitigations_per_1m_acts']:>25.0f}")

    # Shape: p (and refresh traffic) scales ~inversely with T_RH; at
    # T_RH=32K it is well under 0.1% (the paper's "p < 1%"), while at
    # ultra-low thresholds it is orders of magnitude higher.
    assert probabilities[32000] < 0.001
    assert probabilities[500] / probabilities[32000] > 30
    assert probabilities[125] > probabilities[250] > probabilities[500]


def test_sec73_probabilistic_insecurity(benchmark):
    outcomes = run_entry(benchmark, "sec73_insecurity")

    print("\n=== §7.3: security verdicts ===")
    print(f"MRLOC violated: {outcomes['mrloc_violated']} (paper: not secure)")
    print(f"ProHIT violated: {outcomes['prohit_violated']} (paper: not secure)")
    print(f"Hydra violations: {outcomes['hydra_violations']} (must be 0)")

    assert outcomes["mrloc_violated"], "oracle should defeat MRLOC"
    assert outcomes["prohit_violated"], "oracle should defeat ProHIT"
    assert outcomes["hydra_violations"] == 0
