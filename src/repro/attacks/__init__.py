"""Declarative attack programs: DSL, registry, oracle cell, fuzzer.

Every attack in the repo is built here, as data — there is no other
construction path:

- :mod:`repro.attacks.ops` — the AST (``act``/``pre``/``nop``/
  ``loop``/``sync_refresh`` with late-bound placeholders);
- :mod:`repro.attacks.parse` — the text DSL and the
  :class:`ProgramBuilder` API;
- :mod:`repro.attacks.resolve` — placeholder binding + geometry
  bounds-checking;
- :mod:`repro.attacks.compile` — flat activation sequences / event
  streams both harnesses consume;
- :mod:`repro.attacks.registry` — named, spec-string-configurable
  attacks (``many_sided@aggs=18,rounds=4096``);
- :mod:`repro.attacks.programs` — the built-in zoo (imported lazily by
  the registry);
- :mod:`repro.attacks.pipeline` — :func:`judge_attack`, the one oracle
  cell (compiled attack + tracker → verdict) the arena and the fuzzer
  share (imported explicitly; it pulls in the analysis layer);
- :mod:`repro.attacks.fuzz` — seeded random-program tracker fuzzing
  (imported explicitly by its users; it pulls in the analysis layer).
"""

from repro.attacks.compile import (
    EVENT_ACT,
    EVENT_SYNC,
    CompiledAttack,
    compile_program,
    exercised_within,
)
from repro.attacks.ops import (
    Act,
    Loop,
    Nop,
    P,
    Placeholder,
    Pre,
    Program,
    SyncRefresh,
)
from repro.attacks.parse import ParseError, ProgramBuilder, parse_program
from repro.attacks.registry import (
    AttackContext,
    AttackInfo,
    AttackSpec,
    attack_info,
    available_attacks,
    build_attack,
    canonical_attack_spec,
    compile_attack,
    parse_attack_spec,
    register_attack,
)
from repro.attacks.resolve import (
    AttackBoundsError,
    ResolvedProgram,
    UnboundPlaceholderError,
    resolve,
)

__all__ = [
    "Act",
    "AttackBoundsError",
    "AttackContext",
    "AttackInfo",
    "AttackSpec",
    "CompiledAttack",
    "EVENT_ACT",
    "EVENT_SYNC",
    "Loop",
    "Nop",
    "P",
    "ParseError",
    "Placeholder",
    "Pre",
    "Program",
    "ProgramBuilder",
    "ResolvedProgram",
    "SyncRefresh",
    "UnboundPlaceholderError",
    "attack_info",
    "available_attacks",
    "build_attack",
    "canonical_attack_spec",
    "compile_attack",
    "compile_program",
    "exercised_within",
    "parse_attack_spec",
    "parse_program",
    "register_attack",
    "resolve",
]
