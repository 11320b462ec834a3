"""PARA: Probabilistic Adjacent Row Activation (Kim et al., ISCA 2014).

The stateless defense (§7.3): every activation triggers a victim
refresh with probability ``p``. Security is probabilistic — the chance
an aggressor performs T_RH activations with *no* mitigation is
``(1-p)^T_RH`` — so ``p`` must grow as T_RH shrinks, which is exactly
why PARA becomes expensive at ultra-low thresholds.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Optional

from repro.trackers.base import ActivationTracker, TrackerResponse
from repro.trackers.registry import Param, register_tracker

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig


def para_probability(trh: int, failure_exponent: int = 40) -> float:
    """Smallest p with P(T_RH unmitigated ACTs) <= 2^-failure_exponent.

    Solves (1-p)^trh = 2^-k  =>  p = 1 - 2^(-k/trh).
    """
    if trh <= 0:
        raise ValueError("trh must be positive")
    if failure_exponent <= 0:
        raise ValueError("failure_exponent must be positive")
    return 1.0 - 2.0 ** (-failure_exponent / trh)


class ParaTracker(ActivationTracker):
    """Stateless probabilistic mitigation."""

    name = "para"

    def __init__(
        self,
        trh: int = 500,
        failure_exponent: int = 40,
        seed: int = 0xFADE,
        probability: Optional[float] = None,
    ) -> None:
        self.trh = trh
        self.probability = (
            probability
            if probability is not None
            else para_probability(trh, failure_exponent)
        )
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        self._rng = random.Random(seed)
        self.mitigations = 0
        self.activations = 0

    def on_activation(self, row_id: int) -> Optional[TrackerResponse]:
        self.activations += 1
        if self._rng.random() < self.probability:
            self.mitigations += 1
            return TrackerResponse(mitigate_rows=(row_id,))
        return None

    def on_window_reset(self) -> None:
        return None  # stateless

    def sram_bytes(self) -> int:
        return 0  # a PRNG, effectively free

    def expected_mitigations(self, activations: int) -> float:
        return activations * self.probability

    def failure_probability(self, activations: int) -> float:
        """P(a specific row receives ``activations`` ACTs unmitigated)."""
        return math.pow(1.0 - self.probability, activations)


@register_tracker(
    "para",
    summary="stateless probabilistic mitigation (PARA)",
    security_class="probabilistic",
    params={
        "probability": Param(
            float, help="per-ACT mitigation probability (default: from trh)"
        ),
        "failure_exponent": Param(
            int, 40, "target failure probability 2^-N per window"
        ),
        "seed": Param(int, 0xFADE, "PRNG seed"),
    },
)
def _para_from_context(
    ctx: SystemConfig,
    probability: Optional[float] = None,
    failure_exponent: int = 40,
    seed: int = 0xFADE,
) -> ParaTracker:
    return ParaTracker(
        trh=ctx.trh,
        failure_exponent=failure_exponent,
        seed=seed,
        probability=probability,
    )
