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
- ``repro.cpu``       — LLC model, limited-MLP core model.
- ``repro.workloads`` — Table-3-calibrated traces, GUPS.
- ``repro.attacks``   — attack programs (DSL, registry), the oracle
  cell, and the attack fuzzer.
- ``repro.analysis``  — security verification, SRAM power, trends.
- ``repro.sim``       — experiment harness and sweeps.
"""

from repro.core import (
    GroupCountTable,
    HydraConfig,
    HydraStats,
    HydraTracker,
    RowCountCache,
    RowCountTable,
    hydra_storage,
)
from repro.interfaces import (
    ActivationTracker,
    MetaAccess,
    NullTracker,
    TrackerResponse,
)

__version__ = "1.0.0"

#: The blessed experiment surface (``repro.api``), re-exported lazily
#: (PEP 562) so ``import repro`` stays cheap: the simulation stack
#: behind these names loads only on first attribute access.
_API_EXPORTS = (
    "run",
    "sweep",
    "compare",
    "RunSpec",
    "GridSpec",
    "RunResult",
    "GridResult",
    "list_trackers",
    "list_attacks",
)

__all__ = [
    "ActivationTracker",
    "GroupCountTable",
    "HydraConfig",
    "HydraStats",
    "HydraTracker",
    "MetaAccess",
    "NullTracker",
    "RowCountCache",
    "RowCountTable",
    "TrackerResponse",
    "hydra_storage",
    "__version__",
    *_API_EXPORTS,
]


def __getattr__(name: str):
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_API_EXPORTS))
