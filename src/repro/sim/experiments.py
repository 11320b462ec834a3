"""Named-experiment registry: one entry per committed paper result.

Each entry computes one table, figure or section of the paper's
evaluation, and names the file under ``benchmarks/results/`` that
holds its payload at the default config (1/32 scale, T_RH=500, fast
engine). :func:`render` is the one serialization of a payload, so:

- ``hydra-sim experiment NAME`` prints ``render(payload)``: at the
  default options, the entry's committed file plus a final newline;
- each entry's ``benchmarks/bench_*.py`` runs it
  (``_common.run_entry`` writes the rendered payload to the entry's
  file), then prints its table and asserts its shape;
- CI's ``paper-results`` job diffs both against every file named in
  :data:`RESULT_FILES`;
- ``hydra-sim security`` prints the ``sec5`` battery.

An entry is ``fn(runner) -> dict`` over one :class:`ExperimentRunner`;
simulated cells go through its result cache.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

from repro.sim.config import SystemConfig
from repro.sim.sweep import ExperimentRunner

ExperimentFn = Callable[[ExperimentRunner], dict]

_REGISTRY: Dict[str, ExperimentFn] = {}

#: Entry name -> stem of its committed ``benchmarks/results/<stem>.json``.
RESULT_FILES: Dict[str, str] = {}


def experiment(
    name: str, result_file: str
) -> Callable[[ExperimentFn], ExperimentFn]:
    """Register an entry as ``name``; its payload at the default config
    is committed as ``benchmarks/results/<result_file>.json``."""

    def register(fn: ExperimentFn) -> ExperimentFn:
        _REGISTRY[name] = fn
        RESULT_FILES[name] = result_file
        return fn

    return register


def available_experiments() -> List[str]:
    return sorted(_REGISTRY)


def render(payload: dict) -> str:
    """A payload as its committed result file's text."""
    return json.dumps(payload, indent=2, sort_keys=True)


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


@experiment("fig1a", "fig1a_trend")
def fig1a_trend(runner: ExperimentRunner) -> dict:
    from repro.analysis.trends import trend_rows, years_until_threshold

    return {"rows": trend_rows(), "years_until_trh500": years_until_threshold(500)}


@experiment("fig2", "fig2_cra_cache_sweep")
def fig2_cra_cache_sweep(runner: ExperimentRunner) -> dict:
    return {
        f"cra_{kb}kb": _comparison(runner, f"cra@cache_kb={kb}")
        for kb in (64, 128, 256)
    }


@experiment("fig5", "fig5_performance")
def fig5_performance(runner: ExperimentRunner) -> dict:
    return _comparisons(runner, ("graphene", "cra", "hydra"))


@experiment("fig6", "fig6_distribution")
def fig6_distribution(runner: ExperimentRunner) -> dict:
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


@experiment("fig7", "fig7_trh_sensitivity")
def fig7_trh_sensitivity(runner: ExperimentRunner) -> dict:
    return _slowdown_sweep(runner, "hydra@trh={}", (500, 250, 125))


@experiment("fig8", "fig8_ablation")
def fig8_ablation(runner: ExperimentRunner) -> dict:
    return _comparisons(runner, ("hydra", "hydra-norcc", "hydra-nogct"))


@experiment("fig9", "fig9_gct_size")
def fig9_gct_size(runner: ExperimentRunner) -> dict:
    return _slowdown_sweep(
        runner, "hydra@gct_entries={}", (16384, 32768, 65536)
    )


@experiment("fig10", "fig10_tg_threshold")
def fig10_tg(runner: ExperimentRunner) -> dict:
    return _slowdown_sweep(
        runner, "hydra@tg_fraction={}", (0.50, 0.65, 0.80, 0.95)
    )


#: Footnote 4's workload slice: hot-row, streaming and random-access
#: workloads from every suite.
FN4_WORKLOADS = (
    "bwaves", "parest", "xz", "cactuBSSN", "deepsjeng",
    "ferret", "freq", "bc_t", "GUPS",
)


@experiment("fn4", "fn4_randomized_mapping")
def fn4_randomized(runner: ExperimentRunner) -> dict:
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


@experiment("table1", "table1_storage")
def table1_storage(runner: ExperimentRunner) -> dict:
    from repro.trackers.storage import storage_table

    # Int keys sort the T_RH rows numerically.
    return {
        row.trh: {
            scheme: round(size / 1024, 1)
            for scheme, size in row.bytes_by_scheme.items()
        }
        for row in storage_table()
    }


@experiment("table3", "table3_workloads")
def table3_workloads(runner: ExperimentRunner) -> dict:
    """Per-window statistics of every synthetic trace, over one
    window whatever the config's ``n_windows``."""
    from dataclasses import replace

    from repro.sim.simulator import trace_for_workload
    from repro.workloads.characteristics import all_names
    from repro.workloads.trace import characterize

    config = replace(runner.config, n_windows=1)
    payload = {}
    for name in all_names():
        stats = characterize(trace_for_workload(config, name))
        payload[name] = {
            "unique_rows": stats.unique_rows,
            "act250_rows": stats.act250_rows,
            "acts_per_row": round(stats.acts_per_row, 2),
        }
    return payload


@experiment("table4", "table4_hydra_storage")
def table4_hydra_storage(runner: ExperimentRunner) -> dict:
    from repro.core.storage import hydra_storage

    report = hydra_storage(SystemConfig().with_trh(runner.config.trh).hydra_config())
    return {
        "gct_kib": report.gct_bytes / 1024,
        "rcc_kib": report.rcc_bytes / 1024,
        "rit_act_kib": report.rit_act_bytes / 1024,
        "total_kib": report.sram_total_kib,
        "dram_reserved_mib": report.dram_reserved_bytes / 1024 / 1024,
    }


@experiment("table5", "table5_total_sram")
def table5_total_sram(runner: ExperimentRunner) -> dict:
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
    return {
        name: compile_program(resolve(program, geometry=geometry))
        for name, program in programs.items()
    }


@experiment("sec5", "sec5_security")
def sec5_security(runner: ExperimentRunner) -> dict:
    """The Theorem-1 oracle on a fresh Hydra per pattern of
    :func:`build_patterns`."""
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


@experiment("sec68", "sec68_power")
def sec68_power(runner: ExperimentRunner) -> dict:
    """Hydra's DRAM power overhead per workload, and the GCT's and
    RCC's SRAM power at the full-size design point."""
    import numpy as np

    from repro.analysis.sram_power import hydra_sram_power
    from repro.core.config import HydraConfig
    from repro.workloads.characteristics import all_names

    overheads = {}
    for name in all_names():
        base = runner.run("baseline", name)
        hydra = runner.run("hydra", name)
        if base.dram_power_w > 0:
            overheads[name] = 100.0 * (hydra.dram_power_w / base.dram_power_w - 1.0)
    gct, rcc = hydra_sram_power(HydraConfig())
    return {
        "dram_overhead_percent": {k: round(v, 4) for k, v in overheads.items()},
        "dram_overhead_mean_percent": round(
            float(np.mean(list(overheads.values()))), 4
        ),
        "gct_mw": round(gct.total_mw, 2),
        "rcc_mw": round(rcc.total_mw, 2),
    }


@experiment("sec73_para", "sec73_para_scaling")
def sec73_para_scaling(runner: ExperimentRunner) -> dict:
    """PARA's mitigation probability per T_RH."""
    from repro.trackers.para import para_probability

    payload = {}
    for trh in (32000, 4000, 1000, 500, 250, 125):
        p = para_probability(trh)
        payload[str(trh)] = {"p": p, "mitigations_per_1m_acts": p * 1_000_000}
    return payload


@experiment("sec73_insecurity", "sec73_insecurity")
def sec73_insecurity(runner: ExperimentRunner) -> dict:
    """Whether the Theorem-1 oracle breaks MRLOC and ProHIT under any
    of 40 seeds, and Hydra's violations (the control) over 5 runs."""
    from repro.analysis.security import verify_tracker
    from repro.attacks import compile_program, resolve
    from repro.attacks.programs import many_sided_program, single_sided_program
    from repro.core.hydra import HydraTracker
    from repro.trackers.insecure import MrlocTracker, ProhitTracker

    geometry = runner.config.geometry
    hydra_config = runner.config.hydra_config()
    th = hydra_config.th
    single = compile_program(resolve(single_sided_program(5, th + 25)))
    many = compile_program(resolve(many_sided_program(list(range(100, 164)), th + 10)))
    hammer = compile_program(resolve(single_sided_program(5, 4 * th)))

    def violated(make_tracker, sequence) -> bool:
        return any(
            not verify_tracker(make_tracker(seed), geometry, sequence, th).secure
            for seed in range(40)
        )

    return {
        "mrloc_violated": violated(
            lambda seed: MrlocTracker(base_probability=0.002, seed=seed), single
        ),
        "prohit_violated": violated(lambda seed: ProhitTracker(seed=seed), many),
        "hydra_violations": sum(
            len(
                verify_tracker(HydraTracker(hydra_config), geometry, hammer, th)
                .violations
            )
            for _ in range(5)
        ),
    }
