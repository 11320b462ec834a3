"""Shared infrastructure for the per-table/per-figure benchmarks.

Every benchmark regenerates one table or figure of the paper. Where
the paper's result has an entry in :mod:`repro.sim.experiments`, the
benchmark runs that entry (the one definition of the payload), prints
rows shaped like the paper's from it, asserts the *shape* of the
result (who wins, by roughly what factor), and records it under
``benchmarks/results/`` so EXPERIMENTS.md can cite the measured
numbers. ``hydra-sim experiment NAME`` prints the same payload.

Environment knobs:

- ``REPRO_SCALE`` — scale denominator (default 32; larger = faster).
- ``REPRO_CACHE_DIR`` — simulation result cache location. Writes are
  atomic, so concurrent benchmark processes may share one directory.
- ``REPRO_JOBS`` — grid cells simulated in parallel per sweep
  (0 = one worker per CPU; unset = serial).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.sim.config import SystemConfig, default_scale

RESULTS_DIR = Path(__file__).parent / "results"


def bench_config(**overrides) -> SystemConfig:
    """The benchmark system: paper parameters at the default scale."""
    params = dict(scale=default_scale())
    params.update(overrides)
    return SystemConfig(**params)


def record_result(name: str, payload) -> None:
    """Persist one experiment's outcome for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


def print_comparison(column: dict, title: str) -> None:
    """Print one tracker's Figure-5-style table from its payload
    column (``workloads``, ``suite_geomeans``, ``suite_slowdowns``)."""
    print(f"\n=== {title} ===")
    print(f"{'workload':<12} {'norm.perf':>9} {'slowdown%':>10}")
    for workload, row in column["workloads"].items():
        print(
            f"{workload:<12} {row['normalized_performance']:>9.4f} "
            f"{row['slowdown_percent']:>10.2f}"
        )
    print("-" * 33)
    slowdowns = column["suite_slowdowns"]
    for suite, mean in column["suite_geomeans"].items():
        print(f"{suite:<12} {mean:>9.4f} {slowdowns[suite]:>10.2f}")


def print_slowdown_rows(payload: dict, label: str, labels: dict) -> None:
    """Print a Figure-7/9/10-style table: one row of suite slowdowns
    per swept setting (``labels`` maps payload key → row label)."""
    suites = list(next(iter(payload.values())))
    print(f"{label:<10}" + "".join(f"{s:>12}" for s in suites))
    for key, row_label in labels.items():
        print(
            f"{row_label:<10}"
            + "".join(f"{payload[key][s]:>12.2f}" for s in suites)
        )
