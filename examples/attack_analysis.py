#!/usr/bin/env python3
"""Security analysis: Hydra versus the paper's adaptive attacks (§5).

Verifies Theorem-1 (mitigation at or before every T_H activations)
against every attack pattern the paper discusses — single/double/
many-sided, Half-Double, tracker thrashing, RCC thrashing, and
hammering the RCT's own DRAM rows — and contrasts Hydra with an
under-provisioned TRR-style tracker that thrashing defeats.

Run:  python examples/attack_analysis.py
"""

from repro.analysis.security import verify_tracker
from repro.attacks import compile_program, resolve
from repro.attacks.programs import (
    double_sided_program,
    half_double_program,
    many_sided_program,
    rcc_thrash_program,
    rct_region_program,
    single_sided_program,
    thrash_then_hammer_program,
)
from repro.core import HydraConfig, HydraTracker
from repro.trackers.graphene import GrapheneTracker


def main() -> None:
    config = HydraConfig().scaled(1 / 32)
    geometry = config.geometry
    th = config.th

    programs = {
        "single-sided": single_sided_program(1000, 30 * th),
        "double-sided": double_sided_program(2000, 15 * th),
        "many-sided (TRRespass)": many_sided_program(
            list(range(3000, 3064)), 3 * th
        ),
        "half-double": half_double_program(4000, 30 * th),
        "thrash-then-hammer": thrash_then_hammer_program(
            5000, list(range(6000, 6512)), 6 * th, interleave=8
        ),
        "rcc-thrash": rcc_thrash_program(geometry, 2000, 20),
        "rct-region hammer": rct_region_program(geometry, 15 * th),
    }
    # Patterns derived from the geometry are checked against it.
    checked = {"rcc-thrash", "rct-region hammer"}
    patterns = {
        name: compile_program(
            resolve(program, geometry=geometry if name in checked else None)
        )
        for name, program in programs.items()
    }

    print("=== Hydra under adaptive attacks (Theorem-1 oracle check) ===")
    print(f"{'pattern':<24} {'status':<9} {'ACTs':>8} {'mitigations':>12} "
          f"{'max unmitigated':>16}")
    for name, sequence in patterns.items():
        tracker = HydraTracker(config)
        report = verify_tracker(tracker, geometry, sequence, th)
        status = "SECURE" if report.secure else "VIOLATED"
        print(
            f"{name:<24} {status:<9} {report.activations:>8} "
            f"{report.mitigations:>12} "
            f"{report.max_unmitigated_count:>12}/{th}"
        )

    # Contrast: a TRR-style tracker with a handful of entries, the
    # design TRRespass broke. Space-Saving inheritance makes even tiny
    # tables conservative, so we also show the mitigation *blow-up*
    # that under-provisioning causes instead.
    print("\n=== Why sizing matters: 4-entry TRR-style table ===")
    seq = compile_program(resolve(thrash_then_hammer_program(
        5, list(range(512, 612)), 4 * th, interleave=1
    )))
    tiny = GrapheneTracker(geometry, trh=config.trh, entries_per_bank=4)
    report = verify_tracker(tiny, geometry, seq, th)
    print(
        f"4-entry table: secure={report.secure}, "
        f"mitigations={report.mitigations} "
        f"(over-mitigates {report.mitigations / max(1, report.activations // th):.0f}x "
        "the necessary rate — count inheritance saves security by "
        "burning bandwidth)"
    )
    sized = GrapheneTracker(geometry, trh=config.trh)
    report_sized = verify_tracker(sized, geometry, seq, th)
    print(
        f"properly sized ({sized.entries_per_bank}/bank): "
        f"secure={report_sized.secure}, mitigations={report_sized.mitigations}"
    )
    print("\nHydra needs neither: the RCT gives every row a counter, so "
          "thrashing its SRAM only costs performance, never security (§5.3).")


if __name__ == "__main__":
    main()
