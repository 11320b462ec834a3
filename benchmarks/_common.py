"""Shared infrastructure for the per-table/per-figure benchmarks.

Every benchmark regenerates one table or figure of the paper: it runs
the relevant simulations through a disk-cached
:class:`~repro.sim.sweep.ExperimentRunner`, prints rows shaped like
the paper's, asserts the *shape* of the result (who wins, by roughly
what factor), and records the outcome under ``benchmarks/results/`` so
EXPERIMENTS.md can cite the measured numbers.

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
from typing import Dict, Sequence

from repro.sim.config import SystemConfig, default_scale
from repro.sim.results import Comparison, ComparisonResult, geometric_mean
from repro.sim.sweep import ExperimentRunner

RESULTS_DIR = Path(__file__).parent / "results"

_RUNNERS: Dict[str, ExperimentRunner] = {}


def bench_config(**overrides) -> SystemConfig:
    """The benchmark system: paper parameters at the default scale."""
    params = dict(scale=default_scale())
    params.update(overrides)
    return SystemConfig(**params)


def runner_for(config: SystemConfig) -> ExperimentRunner:
    """Session-shared runner per configuration (keeps traces cached)."""
    key = config.cache_key()
    runner = _RUNNERS.get(key)
    if runner is None:
        runner = ExperimentRunner(config)
        _RUNNERS[key] = runner
    return runner


def record_result(name: str, payload) -> None:
    """Persist one experiment's outcome for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


def comparison_table(
    comparisons: ComparisonResult, title: str
) -> Dict[str, object]:
    """Print a Figure-5-style table and return its data."""
    print(f"\n=== {title} ===")
    print(f"{'workload':<12} {'norm.perf':>9} {'slowdown%':>10}")
    rows = {}
    for comp in comparisons:
        rows[comp.workload] = {
            "normalized_performance": round(comp.normalized_performance, 4),
            "slowdown_percent": round(comp.slowdown_percent, 3),
        }
        print(
            f"{comp.workload:<12} {comp.normalized_performance:>9.4f} "
            f"{comp.slowdown_percent:>10.2f}"
        )
    means = comparisons.suite_geomeans()
    slowdowns = comparisons.slowdowns()
    print("-" * 33)
    for suite in means:
        print(f"{suite:<12} {means[suite]:>9.4f} {slowdowns[suite]:>10.2f}")
    return {
        "workloads": rows,
        "suite_geomeans": {k: round(v, 4) for k, v in means.items()},
        "suite_slowdowns": {k: round(v, 3) for k, v in slowdowns.items()},
    }


def all_slowdown(comparisons: Sequence[Comparison]) -> float:
    """Percent slowdown geomean over the workloads actually present.

    With the full grid this is the paper's ALL(36) number; a reduced
    workload list (quick local runs) gets the geomean of its own
    comparisons instead of a bare ``KeyError: 'ALL(36)'``.
    """
    if not comparisons:
        raise ValueError("all_slowdown needs at least one comparison")
    slowdowns = ComparisonResult(comparisons).slowdowns()
    if "ALL(36)" in slowdowns:
        return slowdowns["ALL(36)"]
    mean = geometric_mean(
        [c.normalized_performance for c in comparisons]
    )
    return 100.0 * (1.0 / mean - 1.0)
