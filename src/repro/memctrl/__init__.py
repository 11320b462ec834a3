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

Every name below loads its module on first access, so the registry's
engine-name check does not load the engines themselves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.dram.timing import DramGeometry, DramTiming
    from repro.interfaces import ActivationTracker
    from repro.memctrl.base import BaseMemoryController

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.memctrl.base": (
        "ENGINES",
        "BaseMemoryController",
        "ControllerStats",
        "EngineRunOutcome",
        "normalize_engine",
    ),
    "repro.memctrl.controller": ("MemoryController",),
    "repro.memctrl.mitigation": ("MitigationStats", "VictimRefreshPolicy"),
    "repro.memctrl.queued": ("QueuedMemoryController", "QueuedStats"),
})
__all__ += ["build_controller"]


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
    from repro.memctrl.base import normalize_engine
    from repro.memctrl.controller import MemoryController
    from repro.memctrl.queued import QueuedMemoryController

    cls = {"fast": MemoryController, "queued": QueuedMemoryController}[
        normalize_engine(engine)
    ]
    return cls(
        geometry,
        timing,
        tracker,
        blast_radius=blast_radius,
        **engine_kwargs,
    )
