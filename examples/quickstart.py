#!/usr/bin/env python3
"""Quickstart: track a RowHammer attack with Hydra.

Builds the paper's default Hydra design point (T_RH = 500, 32K-entry
GCT, 8K-entry RCC) on a scaled memory system, feeds it a double-sided
attack mixed with benign background traffic, and shows the three
tracking paths and the mitigations that protect the victim row.

Run:  python examples/quickstart.py
"""

import random

from repro import HydraConfig, HydraTracker, hydra_storage
from repro.dram.timing import PAPER_GEOMETRY


def main() -> None:
    # A 1/32-scale system: same thresholds, same 128-row groups, same
    # structure ratios as the paper's 32 GB machine (DESIGN.md §3).
    config = HydraConfig().scaled(1 / 32)
    tracker = HydraTracker(config)

    print("Hydra design point")
    print(f"  T_RH = {config.trh}, T_H = {config.th}, T_G = {config.tg}")
    print(f"  GCT entries = {config.gct_entries} "
          f"(row-groups of {config.group_size} rows)")
    print(f"  RCC entries = {config.rcc_entries}, {config.rcc_ways}-way")
    full_scale = hydra_storage(HydraConfig(geometry=PAPER_GEOMETRY))
    print(f"  full-scale SRAM cost: {full_scale.sram_total_kib:.1f} KB (Table 4)\n")

    # A double-sided attack on the rows around victim 5000, hiding in
    # benign traffic touching thousands of other rows.
    rng = random.Random(7)
    victim = 5000
    aggressors = (victim - 1, victim + 1)
    mitigations = []
    window_activations = 50_000  # ~one 64 ms window of this traffic

    for step in range(200_000):
        if step % window_activations == 0 and step:
            tracker.on_window_reset()  # the periodic reset (§4.6)
        if step % 4 == 0:  # every 4th access hammers
            row = aggressors[step % 2]
        else:
            row = rng.randrange(0, config.geometry.total_rows)
        response = tracker.on_activation(row)
        if response and response.mitigate_rows:
            mitigations.append((step, response.mitigate_rows))

    stats = tracker.stats
    dist = stats.distribution()
    print("After 200,000 activations:")
    print(f"  GCT-only updates : {100 * dist['gct_only']:6.2f}%")
    print(f"  RCC hits         : {100 * dist['rcc_hit']:6.2f}%")
    print(f"  RCT (DRAM)       : {100 * dist['rct_access']:6.2f}%")
    print(f"  group inits      : {stats.group_inits}")
    print(f"  mitigations      : {stats.mitigations}\n")

    hammer_mitigations = [
        m for m in mitigations if set(m[1]) & set(aggressors)
    ]
    print(f"Mitigations on the attacking rows: {len(hammer_mitigations)}")
    first = hammer_mitigations[0]
    print(f"  first at activation #{first[0]} -> victim refresh around "
          f"rows {first[1]}")
    print("\nEvery aggressor was mitigated at or before "
          f"T_H = {config.th} of its activations (Theorem-1).")


if __name__ == "__main__":
    main()
