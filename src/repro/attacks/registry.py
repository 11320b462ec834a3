"""Declarative attack registry and spec-string configuration.

The attack instance of :class:`~repro.trackers.registry.SpecRegistry`:
every attack program the simulator knows registers itself in
:data:`ATTACKS` with a name and a typed parameter schema, and anywhere
the stack accepts an attack it accepts a **spec string** in the same
grammar trackers use::

    single_sided
    many_sided@aggs=18,rounds=4096
    half_double@victim=4000,near_ratio=500
    rct_region@hammers=10000

Attack builders receive an :class:`AttackContext` — the slice of a
system an adversary can observe (geometry, timing, T_RH) — and return
a :class:`~repro.attacks.ops.Program`. Parameters left at their
defaults are derived from the context (e.g. hammer counts scale with
the mitigation threshold T_RH/2), so ``compile_attack("single_sided",
ctx)`` always yields a sequence sized to actually exercise the rung
under test.

``compile_attack`` is the one-call path the harnesses use:
spec → builder → resolve (bounds-checked against the context's
geometry) → :class:`~repro.attacks.compile.CompiledAttack`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Union

from repro.attacks.compile import CompiledAttack, compile_program
from repro.attacks.ops import Program
from repro.attacks.resolve import resolve
from repro.dram.timing import (
    PAPER_GEOMETRY,
    PAPER_TIMING,
    DramGeometry,
    DramTiming,
)
from repro.trackers.registry import Spec, SpecInfo, SpecRegistry

__all__ = [
    "ATTACKS",
    "AttackContext",
    "AttackInfo",
    "AttackSpec",
    "attack_info",
    "available_attacks",
    "build_attack",
    "canonical_attack_spec",
    "compile_attack",
    "parse_attack_spec",
    "register_attack",
]


@dataclass(frozen=True)
class AttackContext:
    """What an adversary is assumed to know about the system under
    attack: its geometry, timing, and the threshold being defended."""

    geometry: DramGeometry = PAPER_GEOMETRY
    timing: DramTiming = PAPER_TIMING
    trh: int = 500

    @property
    def threshold(self) -> int:
        """The T_RH/2 mitigation threshold attacks are sized against."""
        return max(1, self.trh // 2)

    @property
    def act_max(self) -> int:
        """ACT_max: the most activations one bank fits in a window."""
        return self.timing.max_activations_per_window()

    def with_trh(self, trh: int) -> "AttackContext":
        return replace(self, trh=trh)

    @classmethod
    def from_system(cls, config: Any) -> "AttackContext":
        """Context from anything geometry/timing/trh-shaped, such as
        a :class:`~repro.sim.config.SystemConfig`."""
        return cls(
            geometry=config.geometry, timing=config.timing, trh=config.trh
        )


#: The attack registry; the built-in zoo lives in
#: :mod:`repro.attacks.programs`.
ATTACKS = SpecRegistry("attack", ("repro.attacks.programs",))

AttackInfo = SpecInfo
AttackSpec = Spec
register_attack = ATTACKS.register
available_attacks = ATTACKS.available
attack_info = ATTACKS.info
parse_attack_spec = ATTACKS.parse
canonical_attack_spec = ATTACKS.canonical


def build_attack(
    spec: Union[str, AttackSpec], context: AttackContext
) -> Program:
    """Construct the (possibly placeholder-bearing) program a spec
    describes, with defaults derived from the context."""
    parsed = parse_attack_spec(spec)
    info = attack_info(parsed.name)
    return info.builder(context, **dict(parsed.params))


def compile_attack(
    spec: Union[str, AttackSpec],
    context: AttackContext,
    bindings: Optional[Mapping[str, int]] = None,
    bounds: str = "raise",
) -> CompiledAttack:
    """Spec → program → resolve against the context → compiled attack."""
    program = build_attack(spec, context)
    resolved = resolve(
        program,
        bindings=bindings,
        geometry=context.geometry,
        bounds=bounds,
    )
    return compile_program(resolved)
