"""Simulation harness: configs, runner, sweeps, result records.

Every name below loads its module on first access, so importing one
module of the package (say :mod:`repro.sim.results`) does not pull in
the simulator and its numpy trace stack.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sim.cache": ("ResultCache",),
    "repro.sim.config": (
        "SystemConfig",
        "baseline_table2",
        "default_cache_dir",
        "default_jobs",
        "default_scale",
        "resolve_jobs",
    ),
    "repro.sim.grid": ("GridCell", "GridSpec", "cell_key"),
    "repro.sim.results": (
        "SCHEMA_VERSION",
        "WELL_KNOWN_EXTRAS",
        "Comparison",
        "ComparisonResult",
        "GridResult",
        "RunResult",
        "geometric_mean",
    ),
    "repro.sim.simulator": (
        "make_tracker",
        "simulate",
        "simulate_workload",
        "trace_for_workload",
    ),
    "repro.sim.sweep": ("ExperimentRunner", "SweepProgress"),
})
