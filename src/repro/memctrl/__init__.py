"""Memory-controller layer: scheduling engines, tracker hook, mitigation.

Two scheduling *engines* share one design
(:class:`~repro.memctrl.base.BaseMemoryController`: construction,
tracker feedback, reporting): the fast in-order
:class:`MemoryController` (``engine="fast"``, used for the large
sweeps) and the discrete-event :class:`QueuedMemoryController`
(``engine="queued"``) with FR-FCFS read queues and a
watermark-drained write queue.
:func:`build_controller` selects one by name; every downstream
consumer (``simulate``, sweeps, the result cache, benchmarks) is
engine-agnostic.
"""

from typing import Optional

from repro.dram.timing import DramGeometry, DramTiming
from repro.interfaces import ActivationTracker
from repro.memctrl.base import (
    ENGINES,
    BaseMemoryController,
    ControllerStats,
    EngineRunOutcome,
    drive_in_order,
    normalize_engine,
)
from repro.memctrl.controller import MemoryController
from repro.memctrl.mitigation import MitigationStats, VictimRefreshPolicy
from repro.memctrl.queued import QueuedMemoryController, QueuedStats
from repro.memctrl.rowswap import RowIndirectionTable, RowSwapController

#: Engine name -> controller class (the selectable-engine registry).
ENGINE_CLASSES = {
    "fast": MemoryController,
    "queued": QueuedMemoryController,
}


def build_controller(
    engine: str,
    geometry: DramGeometry,
    timing: DramTiming,
    tracker: Optional[ActivationTracker] = None,
    blast_radius: int = 2,
    **engine_kwargs,
) -> BaseMemoryController:
    """Construct the controller for ``engine`` (one of :data:`ENGINES`).

    ``engine_kwargs`` pass engine-specific knobs through (e.g. the
    queued engine's ``write_queue_high``/``write_queue_low``).
    """
    cls = ENGINE_CLASSES[normalize_engine(engine)]
    return cls(
        geometry,
        timing,
        tracker,
        blast_radius=blast_radius,
        **engine_kwargs,
    )


__all__ = [
    "ENGINES",
    "ENGINE_CLASSES",
    "BaseMemoryController",
    "ControllerStats",
    "EngineRunOutcome",
    "MemoryController",
    "MitigationStats",
    "QueuedMemoryController",
    "QueuedStats",
    "RowIndirectionTable",
    "RowSwapController",
    "VictimRefreshPolicy",
    "build_controller",
    "drive_in_order",
    "normalize_engine",
]
