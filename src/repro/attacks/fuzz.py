"""Seeded attack-program fuzzing of the whole tracker registry.

The hand-built oracle battery probes trackers with the attack shapes
we already know about. The fuzzer probes them with shapes nobody wrote
down: from one corpus seed it generates a deterministic stream of
random hammer programs — random aggressor sets, round-robin
interleavings, refresh-aligned burst phases, decoy traffic, row sprays
— and drives every registered tracker through the §5 security oracle
with each of them, judging outcomes with the arena's class-aware
verdict logic (:mod:`repro.analysis.verdicts`). A ``deterministic``
tracker that violates on *any* generated program is a reproduction
bug; the fuzzer exists to find those before an adversary does.

Each judged (tracker, program) cell appends one
:class:`~repro.obs.manifest.FuzzOracleRecord` line to the run manifest
(``kind="fuzz-oracle"``), so fuzz campaigns accumulate next to grid
and arena provenance. Entry point: ``hydra-sim fuzz``.

Determinism: program ``i`` of a corpus is generated from
``corpus_seed + i`` alone (given the same context), so any flagged
program is reproducible from its recorded ``program_seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.analysis.verdicts import VERDICT_INSECURE
from repro.attacks.compile import compile_program
from repro.attacks.ops import Program
from repro.attacks.parse import ProgramBuilder
from repro.attacks.pipeline import (
    align_to_refresh,
    annotate,
    hammer,
    run_pipeline,
    verify,
)
from repro.attacks.registry import AttackContext
from repro.attacks.resolve import resolve
from repro.obs.manifest import (
    FuzzOracleRecord,
    ManifestWriter,
    resolve_manifest_path,
)
from repro.service.worker import CellPool
from repro.sim.config import SystemConfig, default_cache_dir, resolve_jobs
from repro.trackers.registry import (
    available_trackers,
    canonical_spec,
    parse_spec,
    tracker_info,
)

__all__ = [
    "DEFAULT_CORPUS_SEED",
    "DEFAULT_ACT_BUDGET",
    "FuzzOutcome",
    "FuzzReport",
    "generate_program",
    "run_fuzz",
]

#: Default corpus seed (any value works; this one is the default so
#: two unconfigured campaigns exercise identical corpora).
DEFAULT_CORPUS_SEED = 0xF0552

#: Default per-program activation budget. Generated programs size
#: their phases against min(budget, a threshold multiple), so low
#: rungs stay cheap and high rungs stay bounded.
DEFAULT_ACT_BUDGET = 60_000

#: Phase strategies the generator draws from (weights inline).
_STRATEGIES = ("burst", "round_robin", "decoy", "spray")


def generate_program(
    seed: int,
    context: AttackContext,
    act_budget: int = DEFAULT_ACT_BUDGET,
) -> Program:
    """Generate one random hammer program, deterministically from
    ``seed`` (given the same context and budget).

    A program is 1–3 phases, each optionally opening with a
    ``sync_refresh`` (refresh-aligned attacks), drawn from:

    - **burst** — one aggressor hammered hard;
    - **round_robin** — a TRRespass-style sweep over a random
      aggressor set;
    - **decoy** — an aggressor interleaved with decoy-row sweeps that
      pressure eviction-based tables;
    - **spray** — uniform random traffic (exercises the no-attack
      path and dilutes the other phases' counts).

    Phase sizes are drawn against the context's T_RH/2 threshold and
    capped by ``act_budget``, so most programs can genuinely cross the
    threshold at the rung under test.
    """
    rng = random.Random(seed)
    threshold = context.threshold
    total_rows = context.geometry.total_rows
    builder = ProgramBuilder(f"fuzz-{seed:#x}")
    phases = rng.randint(1, 3)
    budget = max(32, min(act_budget, 6 * threshold + 64)) // phases
    strategies = [rng.choice(_STRATEGIES) for _ in range(phases)]
    if not any(s in ("burst", "round_robin") for s in strategies):
        # Guarantee at least one phase that can concentrate counts —
        # an all-spray corpus probes nothing (the exercised flag would
        # mark every cell vacuous).
        strategies[rng.randrange(phases)] = "burst"
    for strategy in strategies:
        if rng.random() < 0.5:
            builder.sync_refresh()
        if strategy == "burst":
            row = rng.randrange(total_rows)
            # At high rungs the budget sits below the threshold; the
            # lower bound must not cross the upper (the exercised flag
            # reports the resulting vacuity honestly).
            low = max(1, min(threshold // 2, budget))
            hammers = rng.randint(low, budget)
            with builder.loop(hammers):
                builder.act(row).pre()
        elif strategy == "round_robin":
            count = rng.randint(2, 12)
            aggressors = [rng.randrange(total_rows) for _ in range(count)]
            rounds = rng.randint(1, max(1, budget // count))
            with builder.loop(rounds):
                for row in aggressors:
                    builder.act(row).pre()
        elif strategy == "decoy":
            aggressor = rng.randrange(total_rows)
            decoys = [
                rng.randrange(total_rows)
                for _ in range(rng.randint(1, 24))
            ]
            interleave = rng.randint(1, 16)
            spent = 0
            i = 0
            while spent < budget:
                builder.act(aggressor).pre()
                spent += 1
                if i % interleave == 0:
                    for row in decoys:
                        builder.act(row).pre()
                    spent += len(decoys)
                i += 1
        else:  # spray
            for _ in range(rng.randint(1, budget)):
                builder.act(rng.randrange(total_rows)).pre()
        if rng.random() < 0.25:
            builder.nop(rng.randint(1, 64))
    return builder.build()


@dataclass(frozen=True)
class FuzzOutcome:
    """One judged (tracker, generated program) cell."""

    spec: str
    trh: int
    security_class: str
    program: str
    program_seed: int
    verdict: str
    secure: bool
    violations: int
    max_unmitigated: int
    mitigations: int
    activations: int
    exercised: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec,
            "trh": self.trh,
            "security_class": self.security_class,
            "program": self.program,
            "program_seed": self.program_seed,
            "verdict": self.verdict,
            "secure": self.secure,
            "violations": self.violations,
            "max_unmitigated": self.max_unmitigated,
            "mitigations": self.mitigations,
            "activations": self.activations,
            "exercised": self.exercised,
        }


@dataclass
class FuzzReport:
    """One fuzz campaign: corpus parameters plus every judged cell."""

    trh: int
    corpus_seed: int
    programs: int
    trackers: Sequence[str]
    outcomes: List[FuzzOutcome] = field(default_factory=list)

    @property
    def flagged(self) -> List[FuzzOutcome]:
        """Cells judged ``INSECURE`` — reproduction-level failures."""
        return [o for o in self.outcomes if o.verdict == VERDICT_INSECURE]

    def verdict_counts(self) -> Dict[str, Dict[str, int]]:
        """Per-tracker verdict histogram."""
        counts: Dict[str, Dict[str, int]] = {}
        for outcome in self.outcomes:
            per = counts.setdefault(outcome.spec, {})
            per[outcome.verdict] = per.get(outcome.verdict, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trh": self.trh,
            "corpus_seed": self.corpus_seed,
            "programs": self.programs,
            "trackers": list(self.trackers),
            "flagged": len(self.flagged),
            "verdicts": self.verdict_counts(),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


def _fuzz_cell(
    config: SystemConfig,
    spec: str,
    trh: int,
    program_seed: int,
    act_budget: int,
) -> Dict[str, Any]:
    """Pool-worker work unit: regenerate the program from its seed and
    judge one tracker with it (ships only picklable scalars)."""
    cfg = config.with_trh(trh)
    context = AttackContext.from_system(cfg)
    program = generate_program(program_seed, context, act_budget)
    compiled = compile_program(
        resolve(program, geometry=context.geometry)
    )
    run = run_pipeline(
        compiled,
        context,
        align_to_refresh(),
        hammer(spec, cfg.tracker_context()),
        verify(),
        annotate(program_seed=program_seed),
    )
    report = run.report
    assert report is not None and run.verdict is not None
    return {
        "spec": run.tracker_spec,
        "trh": trh,
        "security_class": run.security_class,
        "program": compiled.name,
        "program_seed": program_seed,
        "verdict": run.verdict,
        "secure": report.secure,
        "violations": len(report.violations),
        "max_unmitigated": report.max_unmitigated_count,
        "mitigations": report.mitigations,
        "activations": report.activations,
        "exercised": bool(run.exercised),
    }


def run_fuzz(
    config: SystemConfig,
    trackers: Optional[Sequence[str]] = None,
    programs: int = 8,
    corpus_seed: int = DEFAULT_CORPUS_SEED,
    act_budget: int = DEFAULT_ACT_BUDGET,
    jobs: Optional[int] = None,
    manifest_path: Optional[Union[str, Path]] = None,
) -> FuzzReport:
    """Fuzz every tracker with a seeded random-program corpus.

    ``trackers`` defaults to the whole registry. Program ``i`` is
    generated from ``corpus_seed + i``; every (tracker, program) cell
    runs the pipeline (align → hammer → verify → annotate) and the
    judged outcome is appended to the manifest (same resolution rules
    as sweeps: explicit path, then ``$REPRO_MANIFEST``, then the cache
    directory when observability is on).
    """
    if programs < 1:
        raise ValueError("programs must be >= 1")
    specs = [canonical_spec(s) for s in (trackers or available_trackers())]
    seeds = [corpus_seed + i for i in range(programs)]
    cells = [
        (config, spec, config.trh, seed, act_budget)
        for spec in specs
        for seed in seeds
    ]
    # Results come back in submission order: spec-major, seed-minor.
    with CellPool.sized(resolve_jobs(jobs), len(cells)) as pool:
        payloads = pool.map(_fuzz_cell, cells)
    report = FuzzReport(
        trh=config.trh,
        corpus_seed=corpus_seed,
        programs=programs,
        trackers=specs,
    )
    records: List[FuzzOracleRecord] = []
    for payload in payloads:
        outcome = FuzzOutcome(**payload)
        report.outcomes.append(outcome)
        records.append(FuzzOracleRecord(**payload))
    dest = resolve_manifest_path(manifest_path, default_cache_dir())
    if dest is not None and records:
        ManifestWriter(dest).append(records)
    return report
