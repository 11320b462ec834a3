"""Reproduction of "Hydra: Enabling Low-Overhead Mitigation of
Row-Hammer at Ultra-Low Thresholds via Hybrid Tracking" (ISCA 2022).

Quick start::

    from repro import HydraConfig, HydraTracker

    tracker = HydraTracker(HydraConfig(trh=500))
    response = tracker.on_activation(row_id)      # None on the fast path
    if response and response.mitigate_rows:
        ...  # refresh the aggressor's neighbours

Full-system simulation::

    from repro.sim import SystemConfig, ExperimentRunner

    runner = ExperimentRunner(SystemConfig(scale=1 / 32))
    result = runner.run("hydra", "GUPS")
    comparisons = runner.compare("hydra", ["GUPS", "xz"])

Packages:

- ``repro.core``      — Hydra itself (GCT, RCC, RCT, RIT-ACT).
- ``repro.trackers``  — baselines: Graphene, CRA, OCPR, PARA, D-CBF.
- ``repro.dram``      — event-driven DDR4 substrate + power model.
- ``repro.memctrl``   — memory controller, mitigation engine.
- ``repro.cpu``       — LLC model (the core is the engines' MLP window).
- ``repro.workloads`` — Table-3-calibrated traces, GUPS.
- ``repro.attacks``   — attack programs (DSL, registry), the oracle
  cell, and the attack fuzzer.
- ``repro.analysis``  — security verification, SRAM power, trends.
- ``repro.sim``       — experiment harness and sweeps.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: The public names, each loaded on first access (PEP 562): ``import
#: repro`` (and so any ``import repro.<module>``) costs nothing beyond
#: this file. The ``repro.api`` names are the blessed experiment
#: surface; the rest are Hydra's structures and the tracker interface.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core": (
        "GroupCountTable",
        "HydraConfig",
        "HydraStats",
        "HydraTracker",
        "RowCountCache",
        "RowCountTable",
        "hydra_storage",
    ),
    "repro.interfaces": (
        "ActivationTracker",
        "MetaAccess",
        "NullTracker",
        "TrackerResponse",
    ),
    "repro.api": (
        "run",
        "sweep",
        "compare",
        "GridSpec",
        "RunResult",
        "GridResult",
        "list_trackers",
        "list_attacks",
    ),
})
__all__ += ["__version__"]
