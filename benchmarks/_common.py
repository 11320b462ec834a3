"""Shared infrastructure for the per-table/per-figure benchmarks.

Every benchmark regenerates one table or figure of the paper by
running its entry of :mod:`repro.sim.experiments`, the one definition
of the payload: :func:`run_entry` runs the entry at the benchmark
config and writes the payload to the file the entry names under
``benchmarks/results/``, which EXPERIMENTS.md cites. The benchmark
then prints rows shaped like the paper's and asserts the *shape* of
the result (who wins, by roughly what factor). ``hydra-sim experiment
NAME`` prints the same payload. (``bench_parallel_speedup.py`` times
the sweep layer instead, and records nothing.)

Environment knobs:

- ``REPRO_SCALE`` — scale denominator (default 32; larger = faster).
- ``REPRO_CACHE_DIR`` — simulation result cache location. Writes are
  atomic, so concurrent benchmark processes may share one directory.
- ``REPRO_JOBS`` — grid cells simulated in parallel per sweep
  (0 = one worker per CPU; unset = serial).
"""

from __future__ import annotations

from pathlib import Path

from repro.sim.config import SystemConfig, default_scale
from repro.sim.experiments import RESULT_FILES, render, run_experiment

RESULTS_DIR = Path(__file__).parent / "results"


def bench_config() -> SystemConfig:
    """The benchmark system: paper parameters at the default scale."""
    return SystemConfig(scale=default_scale())


def run_entry(benchmark, name: str) -> dict:
    """Run registry entry ``name`` once at :func:`bench_config`, timed
    by the ``benchmark`` fixture, and record its payload in the
    entry's result file."""
    payload = benchmark.pedantic(
        run_experiment, args=(name, bench_config()), rounds=1, iterations=1
    )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{RESULT_FILES[name]}.json").write_text(render(payload))
    return payload


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
