"""The attack-program zoo: every known adversary, as data.

Each pattern the repo once hand-wrote as a Python generator exists
here twice over:

- an **explicit-argument program builder** (``single_sided_program``
  …) producing a :class:`~repro.attacks.ops.Program` from the same
  arguments the original generator took — callers compile it with
  ``compile_program(resolve(program))``, and the golden-parity tests
  pin it bit-identical to the original outputs;
- a **registry entry** (``@register_attack``) whose unset parameters
  are derived from the :class:`~repro.attacks.registry.AttackContext`
  (hammer counts scale with the T_RH/2 threshold), so spec strings
  like ``many_sided@aggs=18`` are runnable against any rung.

The regular patterns (single/double-sided, refresh-synchronized) are
defined in the text DSL itself and parsed at import — the parse →
resolve → compile path is the production path, not a test fixture.
Data-dependent patterns (Half-Double's interleave arithmetic, the RNG
shapes) are built imperatively with :class:`ProgramBuilder`; either
way the attack ends up as an inspectable op tree.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from repro.attacks.ops import Program
from repro.attacks.parse import ProgramBuilder, parse_program
from repro.attacks.registry import AttackContext, register_attack
from repro.dram.timing import DramGeometry
from repro.trackers.registry import Param

__all__ = [
    "DEFAULT_MANY_AGGRESSORS",
    "MANY_ACT_CAP",
    "RANDOM_ACT_CAP",
    "RANDOM_SEED",
    "double_sided_program",
    "half_double_program",
    "many_sided_program",
    "random_noise_program",
    "rcc_thrash_program",
    "rct_region_program",
    "refresh_sync_program",
    "single_sided_program",
    "thrash_then_hammer_program",
]

#: Many-sided battery shape (shared with the arena): enough aggressors
#: to overflow small recent-row queues (MRLoc keeps 16), bounded in
#: total activations so high rungs stay tractable.
DEFAULT_MANY_AGGRESSORS = 18
MANY_ACT_CAP = 400_000
RANDOM_ACT_CAP = 120_000
RANDOM_SEED = 0xA12E5A


# ----------------------------------------------------------------------
# Text-DSL templates (parsed once at import)
# ----------------------------------------------------------------------

SINGLE_SIDED = parse_program(
    """
# program: single_sided
loop $hammers:
    act row=$aggressor
    pre
"""
)

DOUBLE_SIDED = parse_program(
    """
# program: double_sided
loop $hammers:
    act row=$victim-1
    pre
    act row=$victim+1
    pre
"""
)

REFRESH_SYNC = parse_program(
    """
# program: refresh_sync
loop $windows:
    sync_refresh
    loop $hammers:
        act row=$row
        pre
"""
)


# ----------------------------------------------------------------------
# Explicit-argument program builders (the original generators' shapes)
# ----------------------------------------------------------------------


def single_sided_program(aggressor: int, hammers: int) -> Program:
    """Hammer one row continuously."""
    if hammers < 0:
        raise ValueError("hammers must be non-negative")
    return replace(
        SINGLE_SIDED, defaults={"aggressor": aggressor, "hammers": hammers}
    )


def double_sided_program(victim: int, hammers_per_side: int) -> Program:
    """Alternate the two rows sandwiching ``victim``."""
    if victim < 1:
        raise ValueError("victim must have a row on each side")
    return replace(
        DOUBLE_SIDED, defaults={"victim": victim, "hammers": hammers_per_side}
    )


def many_sided_program(aggressors: Sequence[int], rounds: int) -> Program:
    """TRRespass-style: sweep many aggressors round-robin."""
    if not aggressors:
        raise ValueError("need at least one aggressor")
    b = ProgramBuilder("many_sided")
    with b.loop(rounds):
        for aggressor in aggressors:
            b.act(int(aggressor)).pre()
    return b.build()


def half_double_program(
    victim: int, far_hammers: int, near_ratio: int = 1000
) -> Program:
    """Half-Double: heavy distance-2 hammering plus rare near accesses."""
    if victim < 2:
        raise ValueError("victim needs distance-2 rows on both sides")
    b = ProgramBuilder("half_double")
    near = (victim - 1, victim + 1)
    far = (victim - 2, victim + 2)
    for i in range(far_hammers):
        b.act(far[i % 2]).pre()
        if near_ratio and i % near_ratio == near_ratio - 1:
            b.act(near[(i // near_ratio) % 2]).pre()
    return b.build()


def thrash_then_hammer_program(
    aggressor: int,
    decoy_rows: Sequence[int],
    hammers: int,
    interleave: int = 1,
) -> Program:
    """Interleave decoy-row sweeps with aggressor activations."""
    if interleave < 1:
        raise ValueError("interleave must be >= 1")
    b = ProgramBuilder("thrash")
    decoys = [int(row) for row in decoy_rows]
    for i in range(hammers):
        b.act(aggressor).pre()
        if decoys and i % interleave == 0:
            for decoy in decoys:
                b.act(decoy).pre()
    return b.build()


def rcc_thrash_program(
    geometry: DramGeometry,
    target_rows: int,
    rounds: int,
    seed: int = 11,
) -> Program:
    """Memory performance attack on Hydra's RCC (§5.3)."""
    population = geometry.total_rows // 2
    if target_rows > population:
        raise ValueError(
            f"rcc_thrash needs {target_rows} distinct rows in the lower half"
            f" of the geometry, which has only {geometry.total_rows} rows"
        )
    rng = np.random.default_rng(seed)
    rows = rng.choice(population, size=target_rows, replace=False)
    b = ProgramBuilder("rcc_thrash")
    for _ in range(rounds):
        rng.shuffle(rows)
        for row in rows:
            b.act(int(row)).pre()
    return b.build()


def rct_region_program(
    geometry: DramGeometry, hammers: int, counter_bytes: int = 1
) -> Program:
    """Directly hammer the DRAM rows storing the RCT (§5.2.2)."""
    from repro.core.rct import RowCountTable

    table = RowCountTable(geometry, counter_bytes=counter_bytes)
    base = table.meta_base_local
    meta_rows = [
        bank * geometry.rows_per_bank + base + offset
        for bank in range(min(2, geometry.total_banks))
        for offset in range(table.meta_rows_per_bank)
    ]
    first_two = meta_rows[:2] if len(meta_rows) >= 2 else meta_rows
    b = ProgramBuilder("rct_region")
    targets = list(itertools.islice(itertools.cycle(first_two), 2))
    if not targets:
        return b.build()
    if len(set(targets)) == 1:
        with b.loop(hammers):
            b.act(targets[0]).pre()
        return b.build()
    with b.loop(hammers // 2):
        b.act(targets[0]).pre()
        b.act(targets[1]).pre()
    if hammers % 2:
        b.act(targets[0]).pre()
    return b.build()


def random_noise_program(length: int, span: int, seed: int) -> Program:
    """Uniform random row traffic (the oracle battery's sanity lane)."""
    if span < 1:
        raise ValueError("span must be positive")
    rng = random.Random(seed)
    b = ProgramBuilder("random")
    for _ in range(length):
        b.act(rng.randrange(span)).pre()
    return b.build()


def refresh_sync_program(
    row: int, windows: int, hammers_per_window: int
) -> Program:
    """Window-aligned hammering: sync, burst, repeat."""
    return replace(
        REFRESH_SYNC,
        defaults={
            "row": row,
            "windows": windows,
            "hammers": hammers_per_window,
        },
    )


# ----------------------------------------------------------------------
# Registry entries (context-derived defaults)
# ----------------------------------------------------------------------


def _default_hammers(ctx: AttackContext, factor: float = 2.5) -> int:
    """``factor`` crossings of the T_RH/2 threshold, plus slack."""
    return int(factor * ctx.threshold) + 8


def _center_row(ctx: AttackContext) -> int:
    return ctx.geometry.rows_per_bank // 2


@register_attack(
    "single_sided",
    summary="hammer one row continuously",
    params={
        "row": Param(int, 5, "aggressor row (global id)"),
        "hammers": Param(int, help="activations (default: 2.5*T_H + 8)"),
    },
)
def _single_sided(
    ctx: AttackContext, row: int = 5, hammers: Optional[int] = None
) -> Program:
    if hammers is None:
        hammers = _default_hammers(ctx)
    return single_sided_program(row, hammers)


@register_attack(
    "double_sided",
    summary="alternate the two rows sandwiching a victim",
    params={
        "victim": Param(int, help="victim row (default: mid-bank)"),
        "hammers": Param(
            int, help="hammers per side (default: 1.25*T_H + 8)"
        ),
    },
)
def _double_sided(
    ctx: AttackContext,
    victim: Optional[int] = None,
    hammers: Optional[int] = None,
) -> Program:
    if victim is None:
        victim = _center_row(ctx)
    if hammers is None:
        hammers = _default_hammers(ctx, factor=1.25)
    return double_sided_program(victim, hammers)


@register_attack(
    "many_sided",
    summary="TRRespass-style round-robin over many aggressors",
    params={
        "aggs": Param(int, DEFAULT_MANY_AGGRESSORS, "aggressor count"),
        "base": Param(int, 200, "first aggressor row"),
        "stride": Param(int, 1, "row stride between aggressors"),
        "rounds": Param(
            int,
            help="sweeps (default: 1.25*T_H + 8, capped at"
            f" {MANY_ACT_CAP} total activations)",
        ),
    },
)
def _many_sided(
    ctx: AttackContext,
    aggs: int = DEFAULT_MANY_AGGRESSORS,
    base: int = 200,
    stride: int = 1,
    rounds: Optional[int] = None,
) -> Program:
    if rounds is None:
        rounds = _default_hammers(ctx, factor=1.25)
        cap = MANY_ACT_CAP // max(1, aggs)
        if rounds > cap:
            # Capped below the threshold it can no longer exceed —
            # shrink to sanity size rather than burn the full cap.
            rounds = min(cap, 2048)
    aggressors = [base + i * stride for i in range(aggs)]
    return many_sided_program(aggressors, rounds)


@register_attack(
    "half_double",
    summary="distance-2 hammering with rare near accesses (Half-Double)",
    params={
        "victim": Param(int, help="victim row (default: mid-bank)"),
        "far_hammers": Param(
            int, help="distance-2 hammers (default: 2.5*T_H + 8)"
        ),
        "near_ratio": Param(int, 1000, "far hammers per near access"),
    },
)
def _half_double(
    ctx: AttackContext,
    victim: Optional[int] = None,
    far_hammers: Optional[int] = None,
    near_ratio: int = 1000,
) -> Program:
    if victim is None:
        victim = _center_row(ctx)
    if far_hammers is None:
        far_hammers = _default_hammers(ctx)
    return half_double_program(victim, far_hammers, near_ratio)


@register_attack(
    "thrash",
    summary="decoy-sweep interleaved hammering (tracker thrashing)",
    params={
        "aggressor": Param(int, 5, "aggressor row (global id)"),
        "decoys": Param(
            int, help="decoy row count (default: min(512, rows/4))"
        ),
        "decoy_base": Param(
            int, help="first decoy row (default: mid-memory)"
        ),
        "hammers": Param(
            int, help="aggressor activations (default: 4*T_H)"
        ),
        "interleave": Param(int, 8, "hammers per decoy sweep"),
    },
)
def _thrash(
    ctx: AttackContext,
    aggressor: int = 5,
    decoys: Optional[int] = None,
    decoy_base: Optional[int] = None,
    hammers: Optional[int] = None,
    interleave: int = 8,
) -> Program:
    total_rows = ctx.geometry.total_rows
    if decoys is None:
        decoys = min(512, max(1, total_rows // 4))
    if decoy_base is None:
        decoy_base = min(total_rows // 2, total_rows - decoys)
    if hammers is None:
        hammers = 4 * ctx.threshold
    decoy_rows = range(decoy_base, decoy_base + decoys)
    return thrash_then_hammer_program(
        aggressor, decoy_rows, hammers, interleave=interleave
    )


@register_attack(
    "rcc_thrash",
    summary="distinct-row churn forcing Hydra's RCT path (§5.3)",
    params={
        "target_rows": Param(
            int, help="distinct rows (default: min(1024, rows/2))"
        ),
        "rounds": Param(int, 4, "shuffled sweeps over the row set"),
        "seed": Param(int, 11, "RNG seed for row choice and order"),
    },
)
def _rcc_thrash(
    ctx: AttackContext,
    target_rows: Optional[int] = None,
    rounds: int = 4,
    seed: int = 11,
) -> Program:
    if target_rows is None:
        target_rows = min(1024, max(1, ctx.geometry.total_rows // 2))
    return rcc_thrash_program(
        ctx.geometry, target_rows, rounds, seed=seed
    )


@register_attack(
    "rct_region",
    summary="hammer the DRAM rows storing the RCT itself (§5.2.2)",
    params={
        "hammers": Param(int, help="activations (default: 2.5*T_H + 8)"),
        "counter_bytes": Param(int, 1, "RCT counter width"),
    },
)
def _rct_region(
    ctx: AttackContext,
    hammers: Optional[int] = None,
    counter_bytes: int = 1,
) -> Program:
    if hammers is None:
        hammers = _default_hammers(ctx)
    return rct_region_program(
        ctx.geometry, hammers, counter_bytes=counter_bytes
    )


@register_attack(
    "random",
    summary="uniform random row traffic (oracle sanity lane)",
    params={
        "length": Param(
            int,
            help=f"activations (default: min(4*T_H, {RANDOM_ACT_CAP}))",
        ),
        "span": Param(
            int, help="row span drawn from (default: min(4096, rows))"
        ),
        "seed": Param(int, RANDOM_SEED, "RNG seed"),
    },
)
def _random_noise(
    ctx: AttackContext,
    length: Optional[int] = None,
    span: Optional[int] = None,
    seed: int = RANDOM_SEED,
) -> Program:
    if span is None:
        span = max(1, min(4096, ctx.geometry.total_rows))
    if length is None:
        length = min(4 * ctx.threshold, RANDOM_ACT_CAP)
    return random_noise_program(length, span, seed)


@register_attack(
    "refresh_sync",
    summary="window-aligned burst hammering (sync, burst, repeat)",
    params={
        "row": Param(int, 5, "aggressor row (global id)"),
        "windows": Param(int, 4, "tracking windows attacked"),
        "hammers": Param(
            int, help="hammers per window (default: 1.25*T_H + 8)"
        ),
    },
)
def _refresh_sync(
    ctx: AttackContext,
    row: int = 5,
    windows: int = 4,
    hammers: Optional[int] = None,
) -> Program:
    if hammers is None:
        hammers = _default_hammers(ctx, factor=1.25)
    return refresh_sync_program(row, windows, hammers)
