"""Named-experiment registry: the one definition of each paper result.

Each entry computes one table, figure or section of the paper's
evaluation and returns the payload committed under
``benchmarks/results/`` (the file each entry names below). Everything
that shows a result reads it from here:

- ``hydra-sim experiment NAME`` prints the payload as JSON, so at the
  default config (1/32 scale, T_RH=500, fast engine) its output is
  the committed file;
- each ``benchmarks/bench_*.py`` runs the entry, prints its table,
  asserts its shape and records it;
- ``hydra-sim security`` prints the ``sec5`` battery.

An entry is ``fn(runner) -> dict`` over one :class:`ExperimentRunner`;
simulated cells go through its result cache.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

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


def _comparison(runner: ExperimentRunner, spec: str) -> dict:
    """One tracker against the baseline on all 36 workloads, laid out
    like Figure 5: per workload and per suite."""
    comparisons = runner.compare(spec)
    return {
        "workloads": {
            c.workload: {
                "normalized_performance": round(c.normalized_performance, 4),
                "slowdown_percent": round(c.slowdown_percent, 3),
            }
            for c in comparisons
        },
        "suite_geomeans": {
            k: round(v, 4) for k, v in comparisons.suite_geomeans().items()
        },
        "suite_slowdowns": {
            k: round(v, 3) for k, v in comparisons.slowdowns().items()
        },
    }


def _comparisons(runner: ExperimentRunner, specs) -> dict:
    """:func:`_comparison` per spec, plus each one's ALL(36) slowdown."""
    payload = {spec: _comparison(runner, spec) for spec in specs}
    payload["all36_slowdown_percent"] = {
        spec: payload[spec]["suite_slowdowns"]["ALL(36)"] for spec in specs
    }
    return payload


def _slowdown_sweep(runner: ExperimentRunner, spec: str, values) -> dict:
    """Suite slowdowns of ``spec.format(value)`` per swept value."""
    return {
        str(value): {
            k: round(v, 3)
            for k, v in runner.compare(spec.format(value)).slowdowns().items()
        }
        for value in values
    }


@experiment("fig2")
def fig2_cra_cache_sweep(runner: ExperimentRunner) -> dict:
    """``fig2_cra_cache_sweep.json``"""
    return {
        f"cra_{kb}kb": _comparison(runner, f"cra@cache_kb={kb}")
        for kb in (64, 128, 256)
    }


@experiment("fig5")
def fig5_performance(runner: ExperimentRunner) -> dict:
    """``fig5_performance.json``"""
    return _comparisons(runner, ("graphene", "cra", "hydra"))


@experiment("fig6")
def fig6_distribution(runner: ExperimentRunner) -> dict:
    """``fig6_distribution.json``"""
    import numpy as np

    from repro.workloads.characteristics import all_names

    distributions = {
        name: runner.run("hydra", name).hydra_distribution
        for name in all_names()
    }
    means = {
        key: float(np.mean([d[key] for d in distributions.values()]))
        for key in ("gct_only", "rcc_hit", "rct_access")
    }
    return {
        "per_workload": {
            name: {k: round(v, 5) for k, v in dist.items()}
            for name, dist in distributions.items()
        },
        "averages": {k: round(v, 5) for k, v in means.items()},
    }


@experiment("fig7")
def fig7_trh_sensitivity(runner: ExperimentRunner) -> dict:
    """``fig7_trh_sensitivity.json``"""
    return _slowdown_sweep(runner, "hydra@trh={}", (500, 250, 125))


@experiment("fig8")
def fig8_ablation(runner: ExperimentRunner) -> dict:
    """``fig8_ablation.json``"""
    return _comparisons(runner, ("hydra", "hydra-norcc", "hydra-nogct"))


@experiment("fig9")
def fig9_gct_size(runner: ExperimentRunner) -> dict:
    """``fig9_gct_size.json``"""
    return _slowdown_sweep(
        runner, "hydra@gct_entries={}", (16384, 32768, 65536)
    )


@experiment("fig10")
def fig10_tg(runner: ExperimentRunner) -> dict:
    """``fig10_tg_threshold.json``"""
    return _slowdown_sweep(
        runner, "hydra@tg_fraction={}", (0.50, 0.65, 0.80, 0.95)
    )


#: Footnote 4's workload slice: hot-row, streaming and random-access
#: workloads from every suite.
FN4_WORKLOADS = (
    "bwaves", "parest", "xz", "cactuBSSN", "deepsjeng",
    "ferret", "freq", "bc_t", "GUPS",
)


@experiment("fn4")
def fn4_randomized(runner: ExperimentRunner) -> dict:
    """``fn4_randomized_mapping.json``"""
    static, randomized = (
        [c.normalized_performance for c in runner.compare(spec, FN4_WORKLOADS)]
        for spec in ("hydra", "hydra-randomized")
    )
    payload: dict = {
        name: {"static": round(s, 4), "randomized": round(r, 4)}
        for name, s, r in zip(FN4_WORKLOADS, static, randomized)
    }
    worst = max(abs(s - r) for s, r in zip(static, randomized))
    payload["max_abs_delta_percent"] = round(100 * worst, 3)
    return payload


@experiment("table1")
def table1_storage(runner: ExperimentRunner) -> dict:
    """``table1_storage.json`` (int keys sort the T_RH rows numerically)"""
    from repro.trackers.storage import storage_table

    return {
        row.trh: {
            scheme: round(size / 1024, 1)
            for scheme, size in row.bytes_by_scheme.items()
        }
        for row in storage_table()
    }


@experiment("table4")
def table4_hydra_storage(runner: ExperimentRunner) -> dict:
    """``table4_hydra_storage.json``"""
    from repro.core.storage import hydra_storage

    report = hydra_storage(SystemConfig().with_trh(runner.config.trh).hydra_config())
    return {
        "gct_kib": report.gct_bytes / 1024,
        "rcc_kib": report.rcc_bytes / 1024,
        "rit_act_kib": report.rit_act_bytes / 1024,
        "total_kib": report.sram_total_kib,
        "dram_reserved_mib": report.dram_reserved_bytes / 1024 / 1024,
    }


@experiment("table5")
def table5_total_sram(runner: ExperimentRunner) -> dict:
    """``table5_total_sram.json``"""
    from repro.trackers.storage import total_sram_table

    return {
        scheme: {
            "ddr4_kib": round(cols["ddr4"] / 1024, 1),
            "ddr5_kib": round(cols["ddr5"] / 1024, 1),
        }
        for scheme, cols in total_sram_table(trh=runner.config.trh).items()
    }


def build_patterns(config: SystemConfig) -> dict:
    """The §5 attack battery, compiled for ``config``'s geometry and
    Hydra threshold T_H: name → attack sequence."""
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

    geometry = config.geometry
    th = config.hydra_config().th
    programs = {
        "single-sided": single_sided_program(1000, 40 * th),
        "double-sided": double_sided_program(2000, 20 * th),
        "many-sided": many_sided_program(list(range(3000, 3064)), 4 * th),
        "half-double": half_double_program(4000, 40 * th),
        "thrash": thrash_then_hammer_program(
            5000, list(range(6000, 6512)), 8 * th, interleave=8
        ),
        "rcc-thrash": rcc_thrash_program(geometry, 2000, 30),
        "rct-region": rct_region_program(geometry, 20 * th),
    }
    # Patterns derived from the geometry are checked against it.
    checked = {"rcc-thrash", "rct-region"}
    return {
        name: compile_program(
            resolve(program, geometry=geometry if name in checked else None)
        )
        for name, program in programs.items()
    }


@experiment("sec5")
def sec5_security(runner: ExperimentRunner) -> dict:
    """``sec5_security.json``: the Theorem-1 oracle on a fresh Hydra
    per pattern of :func:`build_patterns`."""
    from repro.analysis.security import verify_tracker
    from repro.core.hydra import HydraTracker

    config = runner.config
    hydra_config = config.hydra_config()
    payload = {}
    for name, sequence in build_patterns(config).items():
        report = verify_tracker(
            HydraTracker(hydra_config), config.geometry, sequence, hydra_config.th
        )
        payload[name] = {
            "secure": report.secure,
            "activations": report.activations,
            "mitigations": report.mitigations,
            "max_unmitigated": report.max_unmitigated_count,
        }
    return payload


@experiment("arena")
def arena_pareto(runner: ExperimentRunner) -> dict:
    """Tracker arena: every registered tracker raced down the T_RH
    ladder on slowdown / storage / security (see
    :mod:`repro.analysis.arena`). The config's own ``trh`` is ignored
    — the ladder spans the full range."""
    from repro.analysis.arena import run_arena

    return run_arena(runner.config, jobs=runner.jobs).to_dict()
