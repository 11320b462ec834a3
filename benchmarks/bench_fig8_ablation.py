"""Figure 8: relative contribution of the GCT and the RCC.

Hydra without its RCC falls back to DRAM read-modify-writes for every
per-row update (paper: 4.5% average slowdown); without its GCT every
activation needs per-row state and the RCC thrashes (paper: 20%).
The ordering NoGCT >> NoRCC >> Hydra is the design's justification.
"""

from _common import print_comparison, run_entry


VARIANTS = ("hydra", "hydra-norcc", "hydra-nogct")


def test_fig8_gct_rcc_ablation(benchmark):
    payload = run_entry(benchmark, "fig8")

    for name in VARIANTS:
        print_comparison(payload[name], f"Figure 8: {name}")

    all36 = payload["all36_slowdown_percent"]
    hydra, norcc, nogct = (all36[name] for name in VARIANTS)
    print(
        f"\nALL(36) slowdown: hydra={hydra:.2f}% norcc={norcc:.2f}% "
        f"nogct={nogct:.2f}% (paper: 0.7 / 4.5 / 20)"
    )

    # Shape: both structures matter; the GCT matters most.
    assert hydra < norcc < nogct
    assert norcc > 2.0
    assert nogct > 8.0
