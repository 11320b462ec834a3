"""D-CBF: Dual Counting Bloom Filter tracking (BlockHammer, HPCA 2021).

Two time-shifted counting Bloom filters (three hashes each) identify
rapidly-activated rows. Filters take turns: each lives for one window,
offset by half a window, and the *elder* filter answers queries, so
history is never lost at a reset. Once a row's minimum counter crosses
the blacklist threshold the row stays blacklisted until that filter
retires — the property that forces D-CBF to use rate-control (delay)
mitigation instead of victim refresh, and to be provisioned for very
low false-positive rates (§7.1 "Comparison with D-CBF").

The delay applied to a blacklisted activation paces the row so it
cannot reach T_RH within the window: ``delay = window / (T_RH/2)``,
the denial-of-service arithmetic of footnote 6.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.dram.timing import DramTiming
from repro.trackers.base import ActivationTracker, TrackerResponse
from repro.trackers.registry import SYSTEM_SIZE, Param, register_tracker

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig

#: Large odd multipliers for the three hash functions (Knuth-style).
_HASH_MULTIPLIERS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9)
_HASH_BITS = 64


class CountingBloomFilter:
    """Counting Bloom filter with k multiplicative hashes."""

    __slots__ = ("size", "_counts", "inserted")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        self._counts = [0] * size
        self.inserted = 0

    def _indexes(self, key: int) -> Tuple[int, ...]:
        return tuple(
            ((key * mult) >> (_HASH_BITS - 32)) % self.size
            for mult in _HASH_MULTIPLIERS
        )

    def insert(self, key: int) -> int:
        """Insert and return the new minimum counter estimate."""
        self.inserted += 1
        minimum = None
        for index in self._indexes(key):
            self._counts[index] += 1
            value = self._counts[index]
            if minimum is None or value < minimum:
                minimum = value
        return minimum if minimum is not None else 0

    def estimate(self, key: int) -> int:
        return min(self._counts[index] for index in self._indexes(key))

    def clear(self) -> None:
        self._counts = [0] * self.size
        self.inserted = 0


class DcbfTracker(ActivationTracker):
    """Dual CBF blacklisting with delay-based mitigation.

    Window rotation is driven by :meth:`on_window_reset`, which the
    memory controller calls every *half* tracking window for this
    tracker (``reset_divisor = 2``).
    """

    name = "dcbf"
    #: The controller resets this tracker every window/2 (filter swap).
    reset_divisor = 2

    def __init__(
        self,
        trh: int = 500,
        counters_per_filter: int = 1 << 16,
        timing: DramTiming = DramTiming(),
    ) -> None:
        self.trh = trh
        self.threshold = trh // 2
        self.filters: List[CountingBloomFilter] = [
            CountingBloomFilter(counters_per_filter),
            CountingBloomFilter(counters_per_filter),
        ]
        #: Index of the elder filter (the one answering queries).
        self._elder = 0
        self.delay_ns = timing.refresh_window / max(1, self.threshold)
        self.mitigations = 0
        self.blacklisted_activations = 0

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        for cbf in self.filters:
            cbf.insert(row_id)
        if self.filters[self._elder].estimate(row_id) >= self.threshold:
            self.blacklisted_activations += 1
            self.mitigations += 1
            return TrackerResponse(delay_ns=self.delay_ns)
        return None

    def is_blacklisted(self, row_id: int) -> bool:
        return self.filters[self._elder].estimate(row_id) >= self.threshold

    def on_window_reset(self) -> None:
        """Retire the elder filter; the younger becomes the elder."""
        self.filters[self._elder].clear()
        self._elder ^= 1

    def sram_bytes(self) -> int:
        counter_bits = max(1, (self.threshold).bit_length())
        total_bits = 2 * self.filters[0].size * counter_bits
        return (total_bits + 7) // 8


@register_tracker(
    "dcbf",
    summary="dual counting Bloom filters with delay-based mitigation",
    security_class="rate-control",
    params={
        "counters_per_filter": Param(
            int, help="CBF width (default: 2^18 scaled with the system)",
            bounds=SYSTEM_SIZE,
        ),
    },
)
def _dcbf_from_context(
    ctx: SystemConfig, counters_per_filter: Optional[int] = None
) -> DcbfTracker:
    if counters_per_filter is None:
        counters_per_filter = max(1024, int((1 << 18) * ctx.scale))
    return DcbfTracker(
        trh=ctx.trh,
        counters_per_filter=counters_per_filter,
        timing=ctx.timing,
    )
