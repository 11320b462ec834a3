"""Table 1: per-rank SRAM/CAM storage of prior trackers vs threshold.

Regenerates the storage arithmetic for Graphene, TWiCE, CAT, D-CBF and
OCPR on a 16 GB rank at T_RH of 250 / 500 / 1000 / 32000, and checks
the paper's headline claims: every prior scheme blows the <= 64 KB
goal at ultra-low thresholds, while being cheap at the 32K thresholds
earlier papers evaluated.
"""

import pytest

from _common import run_entry


#: The paper's published values (KB per rank), for comparison.
PAPER_TABLE1 = {
    250: {"Graphene": 679, "OCPR": 2048, "D-CBF": 1536},
    500: {"Graphene": 340, "TWiCE": 2355, "CAT": 1536, "D-CBF": 768, "OCPR": 2355},
    1000: {"Graphene": 170, "TWiCE": 1229, "CAT": 784, "D-CBF": 384, "OCPR": 2560},
    32000: {"Graphene": 5, "TWiCE": 37, "CAT": 25, "D-CBF": 53, "OCPR": 3891},
}


def test_table1_prior_tracker_storage(benchmark):
    payload = run_entry(benchmark, "table1")

    print("\n=== Table 1: per-rank storage (KB) ===")
    schemes = list(next(iter(payload.values())))
    print(f"{'T_RH':<8}" + "".join(f"{s:>10}" for s in schemes))
    for trh, row in payload.items():
        print(f"{trh:<8}" + "".join(f"{row[s]:>10.0f}" for s in schemes))

    # Calibration: within 10% of every published point.
    for trh, expected in PAPER_TABLE1.items():
        for scheme, kib in expected.items():
            assert payload[trh][scheme] == pytest.approx(
                kib, rel=0.10
            ), (trh, scheme)
    # Headline: at T_RH <= 500 every prior scheme exceeds the 64 KB goal.
    for trh in (250, 500):
        for scheme, kib in payload[trh].items():
            assert kib > 64, (trh, scheme)
    # And at the legacy T_RH=32K, SRAM trackers are far below OCPR.
    assert payload[32000]["Graphene"] < payload[32000]["OCPR"] / 100
