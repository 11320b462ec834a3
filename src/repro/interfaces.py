"""Common interface for row-activation trackers.

Every RowHammer defense studied in the paper (Hydra, Graphene, CRA,
OCPR, PARA, D-CBF) is, at its core, a *tracker*: a structure the memory
controller consults on every row activation, which occasionally asks
for (a) extra DRAM accesses to maintain metadata stored in memory and
(b) mitigations (victim refreshes) for rows whose count reached the
tracking threshold.

The interface is deliberately minimal and allocation-light:
``on_activation`` returns ``None`` on the fast path (no metadata
traffic, no mitigation), which is the overwhelmingly common case and
keeps the event loop cheap.
"""

from __future__ import annotations

import abc
from typing import Dict, NamedTuple, Optional, Sequence, Tuple


class MetaAccess(NamedTuple):
    """One metadata access to the DRAM array requested by a tracker.

    ``row_id`` is the global id of the DRAM row that stores the
    metadata, ``n_lines`` how many 64 B lines are moved, and
    ``is_write`` the direction.
    """

    row_id: int
    n_lines: int
    is_write: bool


class TrackerResponse(NamedTuple):
    """Slow-path outcome of one activation update.

    ``mitigate_rows`` lists aggressor rows whose neighbours must be
    refreshed *now*; ``meta_accesses`` lists DRAM metadata traffic the
    controller must perform.
    """

    mitigate_rows: Tuple[int, ...] = ()
    meta_accesses: Tuple[MetaAccess, ...] = ()
    #: Activation delay in ns, for rate-control mitigations (D-CBF).
    delay_ns: float = 0.0


class ActivationTracker(abc.ABC):
    """Abstract tracker consulted by the memory controller on each ACT."""

    #: Human-readable identifier used in reports and sweep results.
    name: str = "tracker"

    @abc.abstractmethod
    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        """Record one activation of ``row_id``.

        Returns ``None`` when nothing beyond the internal update is
        needed, otherwise a :class:`TrackerResponse`. Activations
        caused by victim refresh are fed back through this same method
        (paper §5.2.1), so trackers must tolerate re-entrant patterns.
        """

    @abc.abstractmethod
    def on_window_reset(self) -> None:
        """Reset per-window state (called every tracking window)."""

    @abc.abstractmethod
    def sram_bytes(self) -> int:
        """SRAM/CAM storage the tracker needs, in bytes (full scale)."""

    def dram_reserved_bytes(self) -> int:
        """DRAM capacity reserved for in-memory metadata (default none)."""
        return 0

    def mitigation_count(self) -> int:
        """Total mitigations issued so far (for reports)."""
        return getattr(self, "mitigations", 0)

    def extra_stats(self) -> Dict[str, object]:
        """Tracker-specific result extras (JSON-serializable).

        Whatever a tracker returns here lands verbatim in
        ``RunResult.extra``, so the simulator needs no per-tracker
        special cases (default: nothing).
        """
        return {}

    # -- observability (repro.obs; all optional to implement) ----------

    def obs_snapshot(self) -> Dict[str, float]:
        """Cumulative counters for the per-window series recorder.

        Called at every tracking-window boundary of an *observed* run
        (never otherwise), immediately before ``on_window_reset``, so
        window-local state is still intact. Only monotonically
        increasing counters belong here — the recorder differences
        consecutive snapshots, and a value that resets each window
        would difference to garbage. The default exposes the one
        counter every tracker has.
        """
        return {"tracker_mitigations": float(self.mitigation_count())}

    def publish_metrics(self, registry) -> None:
        """End-of-run publication into a ``MetricsRegistry``.

        Only invoked on observed runs. Subclasses should call
        ``super().publish_metrics(registry)`` and add their own
        instruments.
        """
        registry.counter(
            "tracker_mitigations", "total mitigations issued by the tracker"
        ).inc(self.mitigation_count())
        registry.gauge(
            "tracker_sram_bytes", "full-scale SRAM/CAM footprint"
        ).set(float(self.sram_bytes()))


class NullTracker(ActivationTracker):
    """The insecure baseline: no tracking, no mitigation."""

    name = "baseline"

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        return None

    def on_window_reset(self) -> None:
        return None

    def sram_bytes(self) -> int:
        return 0


def merge_responses(
    responses: Sequence[TrackerResponse],
) -> Optional[TrackerResponse]:
    """Combine several slow-path responses into one (helper for tests)."""
    mitigate: Tuple[int, ...] = ()
    meta: Tuple[MetaAccess, ...] = ()
    delay = 0.0
    for response in responses:
        mitigate += response.mitigate_rows
        meta += response.meta_accesses
        delay += response.delay_ns
    if not mitigate and not meta and delay == 0.0:
        return None
    return TrackerResponse(
        mitigate_rows=mitigate, meta_accesses=meta, delay_ns=delay
    )
