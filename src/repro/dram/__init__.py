"""DRAM substrate: geometry, timing, banks, address mapping, power.

This package is the simulated hardware Hydra sits on top of: an
event-driven DDR4 model with per-bank row-buffer state, a shared
channel data bus, staggered all-bank refresh, and a Micron-style power
model.

Every name below loads its module on first access.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.dram.address": ("AddressMapper", "DramCoordinates"),
    "repro.dram.bank": (
        "AccessResult",
        "Bank",
        "ChannelBus",
        "DramActivityStats",
        "RankActWindow",
        "RefreshTimeline",
    ),
    "repro.dram.ddr5": ("DDR5_GEOMETRY", "DDR5_TIMING", "ddr5_system"),
    "repro.dram.power": (
        "DramPowerModel",
        "DramPowerParams",
        "DramPowerReport",
        "power_overhead_percent",
    ),
    "repro.dram.timing": (
        "PAPER_GEOMETRY",
        "PAPER_TIMING",
        "DramGeometry",
        "DramTiming",
    ),
})
