"""Footnote 4: randomized GCT/RCT indexing ablation.

The paper evaluated a variant where row addresses pass through a keyed
b-bit block cipher (re-keyed each window) before indexing, hiding
group membership from adversaries, and "found that such a randomized
design performs within 0.1% of the static scheme." This benchmark
reproduces that comparison on a representative workload slice.
"""

from _common import run_entry

from repro.sim.experiments import FN4_WORKLOADS


def test_fn4_randomized_mapping(benchmark):
    payload = run_entry(benchmark, "fn4")

    print("\n=== Footnote 4: static vs randomized mapping ===")
    print(f"{'workload':<12} {'static':>9} {'randomized':>11}")
    for name in FN4_WORKLOADS:
        row = payload[name]
        print(f"{name:<12} {row['static']:>9.4f} {row['randomized']:>11.4f}")
    worst = payload["max_abs_delta_percent"]
    print(f"max |delta| = {worst:.2f}% (paper: within ~0.1%)")

    # Shape: randomization is never a meaningful cost. At this scale
    # it is in fact slightly *faster* on hot-row workloads: with the
    # static mapping an aggressor's victim-refresh neighbours share
    # its (saturated) group and pay per-row costs; randomized, those
    # neighbours land in cold groups the GCT absorbs. The assertion
    # bounds the divergence and requires randomized never be slower
    # by more than noise.
    assert worst < 3.0
    for name in FN4_WORKLOADS:
        assert (
            payload[name]["randomized"] >= payload[name]["static"] - 0.005
        ), name
