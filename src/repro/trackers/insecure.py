"""MRLOC and ProHIT: probabilistic trackers the paper deems insecure.

§7.3: "MRLOC [32] and ProHIT [29] also use probabilistic decisions,
however, they are not secure." This module implements faithful
simplifications of both so that claim can be *demonstrated*: the
security harness (Theorem-1 oracle) finds activation sequences that
exceed the RowHammer threshold without ever drawing a mitigation —
something impossible for Hydra, Graphene, CRA, OCPR, CAT or TWiCE.

- **MRLOC** (Memory Row-hammering LOCality, DAC 2019) keeps a small
  queue of recently mitigated/suspected aggressors and scales its
  mitigation probability with how recently the activated row was
  seen: rows re-activated while still in the queue are likelier to
  get a victim refresh. An attacker who paces aggressors so they age
  out of the queue keeps the per-activation probability at the
  floor, and the binomial tail does the rest.

- **ProHIT** (DAC 2017) maintains a two-level hot/cold table managed
  probabilistically: on a miss, the activated row enters the cold
  table with probability 1/p_insert (displacing a random cold entry);
  cold entries promote toward the hot table on hits; the top hot
  entry is mitigated when refresh opportunities arise. Tables sized
  for common-case behaviour can simply *never sample* one of many
  parallel aggressors.

Both are effective *on average* — their published evaluations show
strong protection for benign-ish workloads — which the statistics
tests verify; the security tests verify the worst case fails.
"""

from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.trackers.base import ActivationTracker, TrackerResponse
from repro.trackers.registry import BANK_SIZE, Param, register_tracker

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig


class MrlocTracker(ActivationTracker):
    """Locality-adaptive probabilistic victim refresh."""

    name = "mrloc"

    def __init__(
        self,
        queue_entries: int = 16,
        base_probability: float = 0.002,
        locality_boost: float = 8.0,
        seed: int = 0x4D524C,
    ) -> None:
        if queue_entries <= 0:
            raise ValueError("queue_entries must be positive")
        if not 0.0 < base_probability < 1.0:
            raise ValueError("base_probability must be in (0, 1)")
        if locality_boost < 1.0:
            raise ValueError("locality_boost must be >= 1")
        self.queue_entries = queue_entries
        self.base_probability = base_probability
        self.locality_boost = locality_boost
        self._queue: Deque[int] = deque(maxlen=queue_entries)
        self._rng = random.Random(seed)
        self.mitigations = 0
        self.activations = 0

    def probability_for(self, row_id: int) -> float:
        """Mitigation probability: boosted while the row is queued."""
        if row_id in self._queue:
            return min(1.0, self.base_probability * self.locality_boost)
        return self.base_probability

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        self.activations += 1
        probability = self.probability_for(row_id)
        if self._rng.random() < probability:
            self._queue.append(row_id)
            self.mitigations += 1
            return TrackerResponse(mitigate_rows=(row_id,))
        return None

    def on_window_reset(self) -> None:
        self._queue.clear()

    def sram_bytes(self) -> int:
        return 4 * self.queue_entries  # row-address queue


class ProhitTracker(ActivationTracker):
    """Probabilistic hot/cold table with opportunistic mitigation."""

    name = "prohit"

    def __init__(
        self,
        hot_entries: int = 4,
        cold_entries: int = 8,
        insert_probability: float = 0.01,
        mitigation_interval: int = 512,
        seed: int = 0x50524F,
    ) -> None:
        if hot_entries <= 0 or cold_entries <= 0:
            raise ValueError("table sizes must be positive")
        if not 0.0 < insert_probability <= 1.0:
            raise ValueError("insert_probability must be in (0, 1]")
        if mitigation_interval <= 0:
            raise ValueError("mitigation_interval must be positive")
        self.hot_entries = hot_entries
        self.cold_entries = cold_entries
        self.insert_probability = insert_probability
        self.mitigation_interval = mitigation_interval
        self._hot: Dict[int, int] = {}
        self._cold: Dict[int, int] = {}
        self._rng = random.Random(seed)
        self.mitigations = 0
        self.activations = 0

    def _promote(self, row_id: int) -> None:
        count = self._cold.pop(row_id)
        if len(self._hot) >= self.hot_entries:
            coolest = min(self._hot, key=self._hot.__getitem__)
            if self._hot[coolest] >= count:
                self._cold[row_id] = count
                return
            demoted = self._hot.pop(coolest)
            if len(self._cold) < self.cold_entries:
                self._cold[coolest] = demoted
        self._hot[row_id] = count

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        self.activations += 1
        if row_id in self._hot:
            self._hot[row_id] += 1
        elif row_id in self._cold:
            self._cold[row_id] += 1
            self._promote(row_id)
        elif self._rng.random() < self.insert_probability:
            if len(self._cold) >= self.cold_entries:
                # Displace a random cold entry (probabilistic victim).
                victim = self._rng.choice(list(self._cold))
                del self._cold[victim]
            self._cold[row_id] = 1
        # Opportunistic mitigation of the hottest tabled row.
        if self._hot and self.activations % self.mitigation_interval == 0:
            hottest = max(self._hot, key=self._hot.__getitem__)
            self._hot[hottest] = 0
            self.mitigations += 1
            return TrackerResponse(mitigate_rows=(hottest,))
        return None

    def tabled_rows(self) -> List[int]:
        return list(self._hot) + list(self._cold)

    def on_window_reset(self) -> None:
        self._hot.clear()
        self._cold.clear()

    def sram_bytes(self) -> int:
        return 6 * (self.hot_entries + self.cold_entries)


@register_tracker(
    "mrloc",
    summary="locality-adaptive probabilistic refresh (known-bypassable)",
    security_class="insecure",
    params={
        "queue_entries": Param(int, 16, "recent-victim queue length", bounds=BANK_SIZE),
        "base_probability": Param(float, 0.002, "baseline refresh probability"),
        "locality_boost": Param(float, 8.0, "probability boost while queued"),
        "seed": Param(int, 0x4D524C, "PRNG seed"),
    },
)
def _mrloc_from_context(
    ctx: SystemConfig,
    queue_entries: int = 16,
    base_probability: float = 0.002,
    locality_boost: float = 8.0,
    seed: int = 0x4D524C,
) -> MrlocTracker:
    return MrlocTracker(
        queue_entries=queue_entries,
        base_probability=base_probability,
        locality_boost=locality_boost,
        seed=seed,
    )


@register_tracker(
    "prohit",
    summary="probabilistic hot/cold tables (known-bypassable)",
    security_class="insecure",
    params={
        "hot_entries": Param(int, 4, "hot-table entries", bounds=BANK_SIZE),
        "cold_entries": Param(int, 8, "cold-table entries", bounds=BANK_SIZE),
        "insert_probability": Param(float, 0.01, "cold-insert probability"),
        "mitigation_interval": Param(
            int, 512, "activations between opportunistic mitigations"
        ),
        "seed": Param(int, 0x50524F, "PRNG seed"),
    },
)
def _prohit_from_context(
    ctx: SystemConfig,
    hot_entries: int = 4,
    cold_entries: int = 8,
    insert_probability: float = 0.01,
    mitigation_interval: int = 512,
    seed: int = 0x50524F,
) -> ProhitTracker:
    return ProhitTracker(
        hot_entries=hot_entries,
        cold_entries=cold_entries,
        insert_probability=insert_probability,
        mitigation_interval=mitigation_interval,
        seed=seed,
    )
