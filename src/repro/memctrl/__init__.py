"""Memory-controller layer: scheduling engines, tracker hook, mitigation.

Two scheduling *engines* share one design
(:class:`~repro.memctrl.base.BaseMemoryController`: construction,
tracker feedback, reporting): the fast in-order
:class:`MemoryController` (``engine="fast"``, used for the large
sweeps) and the discrete-event :class:`QueuedMemoryController`
(``engine="queued"``) with FR-FCFS read queues and a
watermark-drained write queue.
Each engine's ``run_trace`` is one request loop over the shared
resolved stream, whatever the trace source: an in-RAM ``Trace``, a
chunked on-disk trace or plain ``(gap_ns, row_id, n_lines,
is_write)`` tuples.
:func:`build_controller` selects one by name; every downstream
consumer (``simulate``, sweeps, the result cache, benchmarks) is
engine-agnostic. The only mitigating action is the victim refresh
(:class:`VictimRefreshPolicy`); the paper's §8 row migration is not
modelled.
"""

from typing import Optional

from repro.dram.timing import DramGeometry, DramTiming
from repro.interfaces import ActivationTracker
from repro.memctrl.base import (
    ENGINES,
    BaseMemoryController,
    ControllerStats,
    EngineRunOutcome,
    normalize_engine,
)
from repro.memctrl.controller import MemoryController
from repro.memctrl.mitigation import MitigationStats, VictimRefreshPolicy
from repro.memctrl.queued import QueuedMemoryController, QueuedStats

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
    "VictimRefreshPolicy",
    "build_controller",
    "normalize_engine",
]
