"""Named-experiment registry: the paper's evaluation as callables.

Each entry regenerates one table/figure programmatically (the
benchmarks under ``benchmarks/`` wrap the same runs with shape
assertions and timing). Exposed through ``hydra-sim experiment`` so a
single figure can be reproduced from the command line without pytest.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.sim.config import SystemConfig
from repro.sim.sweep import ExperimentRunner

ExperimentFn = Callable[[ExperimentRunner], dict]

_REGISTRY: Dict[str, ExperimentFn] = {}


def experiment(name: str) -> Callable[[ExperimentFn], ExperimentFn]:
    def register(fn: ExperimentFn) -> ExperimentFn:
        _REGISTRY[name] = fn
        return fn

    return register


def available_experiments() -> List[str]:
    return sorted(_REGISTRY)


def run_experiment(
    name: str, config: SystemConfig, jobs: Optional[int] = None
) -> dict:
    """Execute one named experiment; returns its payload dict.

    Every experiment runs on one :class:`ExperimentRunner` over
    ``config``; ``jobs`` is its grid parallelism (``None`` defers to
    ``REPRO_JOBS``, then serial).
    """
    try:
        fn = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {available_experiments()}"
        ) from None
    return fn(ExperimentRunner(config, jobs=jobs))


def _tracker_sweep(
    runner: ExperimentRunner, tracker_names: Sequence[str]
) -> dict:
    payload = {}
    for tracker in tracker_names:
        comparisons = runner.compare(tracker)
        payload[tracker] = {
            "per_workload": {
                c.workload: round(c.normalized_performance, 4)
                for c in comparisons
            },
            "suite_geomeans": {
                k: round(v, 4)
                for k, v in comparisons.suite_geomeans().items()
            },
            "suite_slowdowns_percent": {
                k: round(v, 3) for k, v in comparisons.slowdowns().items()
            },
        }
    return payload


@experiment("fig2")
def fig2_cra_cache_sweep(runner: ExperimentRunner) -> dict:
    payload = {}
    for size_kb in (64, 128, 256):
        spec = f"cra@cache_kb={size_kb}"
        payload[f"cra-{size_kb}kb"] = _tracker_sweep(runner, [spec])[spec]
    return payload


@experiment("fig5")
def fig5_performance(runner: ExperimentRunner) -> dict:
    return _tracker_sweep(runner, ["graphene", "cra", "hydra"])


@experiment("fig6")
def fig6_distribution(runner: ExperimentRunner) -> dict:
    from repro.workloads.characteristics import all_names

    return {
        name: {
            k: round(v, 5)
            for k, v in runner.run("hydra", name).hydra_distribution.items()
        }
        for name in all_names()
    }


@experiment("fig7")
def fig7_trh_sensitivity(runner: ExperimentRunner) -> dict:
    payload = {}
    for trh in (500, 250, 125):
        spec = f"hydra@trh={trh}"
        payload[str(trh)] = _tracker_sweep(runner, [spec])[spec][
            "suite_slowdowns_percent"
        ]
    return payload


@experiment("fig8")
def fig8_ablation(runner: ExperimentRunner) -> dict:
    return _tracker_sweep(runner, ["hydra", "hydra-norcc", "hydra-nogct"])


@experiment("fig9")
def fig9_gct_size(runner: ExperimentRunner) -> dict:
    payload = {}
    for entries in (16384, 32768, 65536):
        spec = f"hydra@gct_entries={entries}"
        payload[f"{entries // 1024}K"] = _tracker_sweep(runner, [spec])[spec][
            "suite_slowdowns_percent"
        ]
    return payload


@experiment("fig10")
def fig10_tg(runner: ExperimentRunner) -> dict:
    payload = {}
    for fraction in (0.50, 0.65, 0.80, 0.95):
        spec = f"hydra@tg_fraction={fraction}"
        payload[f"{int(fraction * 100)}%"] = _tracker_sweep(runner, [spec])[
            spec
        ]["suite_slowdowns_percent"]
    return payload


@experiment("table1")
def table1_storage(runner: ExperimentRunner) -> dict:
    from repro.trackers.storage import storage_table

    return {
        str(row.trh): {
            scheme: round(size / 1024, 1)
            for scheme, size in row.bytes_by_scheme.items()
        }
        for row in storage_table()
    }


@experiment("table4")
def table4_hydra_storage(runner: ExperimentRunner) -> dict:
    from repro.core.config import HydraConfig
    from repro.core.storage import hydra_storage

    return dict(hydra_storage(HydraConfig(trh=runner.config.trh)).rows())


@experiment("table5")
def table5_total_sram(runner: ExperimentRunner) -> dict:
    from repro.trackers.storage import total_sram_table

    return {
        scheme: {k: round(v / 1024, 1) for k, v in cols.items()}
        for scheme, cols in total_sram_table(trh=runner.config.trh).items()
    }


@experiment("fn4")
def fn4_randomized(runner: ExperimentRunner) -> dict:
    return _tracker_sweep(runner, ["hydra", "hydra-randomized"])


@experiment("arena")
def arena_pareto(runner: ExperimentRunner) -> dict:
    """Tracker arena: every registered tracker raced down the T_RH
    ladder on slowdown / storage / security (see
    :mod:`repro.analysis.arena`). The config's own ``trh`` is ignored
    — the ladder spans the full range."""
    from repro.analysis.arena import run_arena

    return run_arena(runner.config, jobs=runner.jobs).to_dict()
