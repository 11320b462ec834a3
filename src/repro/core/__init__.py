"""Hydra: the paper's hybrid SRAM/DRAM RowHammer tracker.

Public surface:

- :class:`HydraConfig` — design parameters (thresholds, table sizes).
- :class:`HydraTracker` — the tracker itself (GCT + RCC + RCT + RIT-ACT).
- :class:`GroupCountTable`, :class:`RowCountCache`,
  :class:`RowCountTable` — the individual structures, usable alone.
- :func:`hydra_storage` — Table-4 storage accounting.

Every name below loads its module on first access.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.config": ("HydraConfig",),
    "repro.core.gct": ("GroupCountTable",),
    "repro.core.hydra": ("HydraStats", "HydraTracker"),
    "repro.core.rcc": ("RowCountCache",),
    "repro.core.rct": ("RowCountTable",),
    "repro.core.storage": ("HydraStorageReport", "hydra_storage"),
})
