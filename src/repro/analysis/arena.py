"""The tracker arena: every registered tracker raced on one frontier.

The paper's Table 1 and Figure 5 compare trackers one axis at a time
(storage there, slowdown here) and §5 verifies security for Hydra
alone. The arena runs the whole registry — Hydra, the paper-era
baselines, and the successor trackers (CoMeT, MINT, START) — down a
T_RH ladder from in-the-wild thresholds (139K) to the ultra-low regime
(500), and scores every (tracker, T_RH) cell on three axes at once:

- **slowdown**: geomean normalized performance vs the no-tracking
  baseline over a representative workload subset, via the cached
  parallel :class:`~repro.sim.sweep.ExperimentRunner` grid;
- **storage**: dedicated SRAM plus any LLC carve-out (START) — DRAM
  reservations (Hydra, CRA) reported separately, all at the simulated
  scale;
- **security**: the §5 oracle (:func:`verify_tracker`) driven over an
  adversarial battery (single-sided, TRRespass-style many-sided) and a
  random sanity sequence, with §5.2.1 victim-refresh feedback on — one
  :func:`~repro.attacks.pipeline.judge_attack` call per cell, the same
  judge the attack fuzzer uses.

Oracle verdicts are judged against each tracker's *declared*
:data:`~repro.trackers.registry.SECURITY_CLASSES` claim: a
``deterministic`` tracker with any violation is a reproduction-level
failure (rendered ``INSECURE``), a ``probabilistic`` one may violate
at low thresholds by design, ``rate-control`` designs cannot be
certified by an activation-count oracle at all, and ``insecure``
entries are negative controls expected to break.

Per rung, the cells that survive the oracle are reduced to a Pareto
frontier over (slowdown, storage) — the arena's headline output.

When a manifest destination is configured (see
:func:`repro.obs.manifest.resolve_manifest_path`), every oracle cell
appends one :class:`~repro.obs.manifest.ArenaOracleRecord` line next
to the grid's per-cell provenance records, so one JSON-lines file
carries the full arena provenance.

Entry point: ``hydra-sim arena``; ``--json-out`` writes the report's
``to_dict()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.verdicts import judge_verdict, oracle_eligible
from repro.attacks.compile import CompiledAttack, compile_program
from repro.attacks.pipeline import judge_attack
from repro.attacks.registry import (
    AttackContext,
    build_attack,
    canonical_attack_spec,
    compile_attack,
)
from repro.attacks.resolve import resolve
from repro.dram.timing import PAPER_GEOMETRY
from repro.obs.manifest import ArenaOracleRecord, ManifestWriter
from repro.sim.config import SystemConfig, resolve_jobs
from repro.sim.grid import GridSpec
from repro.service.worker import CellPool
from repro.sim.sweep import ExperimentRunner
from repro.trackers.registry import (
    available_trackers,
    build_tracker,
    canonical_spec,
    parse_spec,
    tracker_info,
)

#: T_RH rungs raced by default: JEDEC-era 139K (the paper's §2 upper
#: anchor) down through the Figure-7 regime to the ultra-low 500.
DEFAULT_TRH_LADDER = (139_000, 20_000, 4_800, 1_000, 500)

#: Representative workload subset for the slowdown axis (one per
#: behaviour family: memory-bound SPEC-int/fp, streaming, GUPS).
DEFAULT_ARENA_WORKLOADS = ("mcf", "lbm", "xz", "stream", "GUPS")

#: Oracle battery sequence names. Each is an alias for a registered
#: attack program whose defaults reproduce the historical hand-built
#: battery exactly; ``run_arena`` also accepts full attack specs
#: (``half_double@victim=4000``) here.
ORACLE_SEQUENCES = ("single", "many", "random")

#: Battery alias → registered attack (context defaults do the sizing).
BATTERY_ATTACKS = {
    "single": "single_sided",
    "many": "many_sided",
    "random": "random",
}


def _battery_context(trh: int, total_rows: int) -> AttackContext:
    """A context carrying exactly the knobs the battery sizes against
    (threshold from ``trh``, row span from ``total_rows``)."""
    geometry = replace(
        PAPER_GEOMETRY,
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=1,
        rows_per_bank=max(1, total_rows),
    )
    return AttackContext(geometry=geometry, trh=trh)


def _cell_attack(
    cfg: SystemConfig, sequence_name: str
) -> Tuple[CompiledAttack, str]:
    """(compiled, label) for a battery alias or an attack spec.

    A battery alias builds its registered attack against
    :func:`_battery_context` and is resolved *without* geometry
    bounds-checking: its fixed aggressor rows (5, 200..217) predate the
    DSL and must keep probing trackers identically even at simulation
    scales whose row space is smaller. Anything else compiles as a
    spec against the rung's own context; an unknown name raises
    ``ValueError``.
    """
    if sequence_name in BATTERY_ATTACKS:
        context = _battery_context(cfg.trh, cfg.geometry.total_rows)
        program = build_attack(BATTERY_ATTACKS[sequence_name], context)
        return compile_program(resolve(program)), sequence_name
    compiled = compile_attack(sequence_name, AttackContext.from_system(cfg))
    return compiled, canonical_attack_spec(sequence_name)


def _oracle_cell(
    config: SystemConfig, spec: str, trh: int, sequence_name: str
) -> Dict[str, Any]:
    """Pool-worker work unit: one (tracker, T_RH, attack) verdict.

    ``sequence_name`` is a battery alias (``single``/``many``/
    ``random``) or a full attack spec; the attack program and the
    tracker are both built from picklable inputs so fan-out ships only
    (config, spec, trh, name) per cell. At small simulation scales the
    scaled window shrinks while thresholds stay invariant, so high
    rungs can become unexercisable — the judged ``exercised`` flag
    keeps those cells honest.
    """
    cfg = config.with_trh(trh)
    compiled, label = _cell_attack(cfg, sequence_name)
    judged = judge_attack(compiled, cfg, spec)
    report = judged.report
    return {
        "spec": spec,
        "trh": trh,
        "sequence": label,
        "exercised": judged.exercised,
        "secure": report.secure,
        "violations": len(report.violations),
        "max_unmitigated": report.max_unmitigated_count,
        "mitigations": report.mitigations,
        "activations": report.activations,
    }


@dataclass(frozen=True)
class OracleOutcome:
    """One oracle sequence's verdict for a (tracker, T_RH) cell."""

    sequence: str
    secure: bool
    exercised: bool
    violations: int
    max_unmitigated: int
    mitigations: int
    activations: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sequence": self.sequence,
            "secure": self.secure,
            "exercised": self.exercised,
            "violations": self.violations,
            "max_unmitigated": self.max_unmitigated,
            "mitigations": self.mitigations,
            "activations": self.activations,
        }


@dataclass
class ArenaCell:
    """One (tracker, T_RH) cell: all three axes plus the verdict."""

    spec: str
    trh: int
    security_class: str
    slowdown_percent: float
    sram_bytes: int
    llc_reserved_bytes: int
    dram_reserved_bytes: int
    oracle: Tuple[OracleOutcome, ...] = ()
    pareto: bool = False

    @property
    def storage_bytes(self) -> int:
        """The frontier's storage axis: dedicated SRAM + LLC carve-out.

        DRAM reservations are kept off the axis (they are capacity,
        not die area — the distinction Hydra's design rests on) but
        reported alongside.
        """
        return self.sram_bytes + self.llc_reserved_bytes

    @property
    def total_violations(self) -> int:
        return sum(outcome.violations for outcome in self.oracle)

    @property
    def exercised(self) -> bool:
        return any(outcome.exercised for outcome in self.oracle)

    @property
    def verdict(self) -> str:
        """Oracle outcome interpreted against the declared class (the
        shared judge in :mod:`repro.analysis.verdicts`)."""
        return judge_verdict(
            self.security_class, self.total_violations, self.exercised
        )

    @property
    def oracle_eligible(self) -> bool:
        """Whether this cell may enter the Pareto frontier: the oracle
        found nothing and the tracker is not a negative control."""
        return oracle_eligible(self.security_class, self.total_violations)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec,
            "trh": self.trh,
            "security_class": self.security_class,
            "slowdown_percent": round(self.slowdown_percent, 4),
            "sram_bytes": self.sram_bytes,
            "llc_reserved_bytes": self.llc_reserved_bytes,
            "dram_reserved_bytes": self.dram_reserved_bytes,
            "storage_bytes": self.storage_bytes,
            "verdict": self.verdict,
            "exercised": self.exercised,
            "pareto": self.pareto,
            "oracle": [outcome.to_dict() for outcome in self.oracle],
        }


@dataclass
class ArenaReport:
    """Full arena outcome: every cell, plus per-rung frontiers."""

    trh_ladder: Tuple[int, ...]
    workloads: Tuple[str, ...]
    scale: float
    engine: str
    cells: List[ArenaCell] = field(default_factory=list)

    def rung(self, trh: int) -> List[ArenaCell]:
        return [cell for cell in self.cells if cell.trh == trh]

    def cell(self, spec: str, trh: int) -> ArenaCell:
        wanted = canonical_spec(spec)
        for candidate in self.cells:
            if candidate.trh == trh and candidate.spec == wanted:
                return candidate
        raise KeyError(f"no arena cell ({spec!r}, trh={trh})")

    def pareto_frontier(self, trh: int) -> List[ArenaCell]:
        return [cell for cell in self.rung(trh) if cell.pareto]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trh_ladder": list(self.trh_ladder),
            "workloads": list(self.workloads),
            "scale": self.scale,
            "engine": self.engine,
            "cells": [cell.to_dict() for cell in self.cells],
            "pareto": {
                str(trh): [c.spec for c in self.pareto_frontier(trh)]
                for trh in self.trh_ladder
            },
        }


def mark_pareto(cells: Sequence[ArenaCell]) -> None:
    """Flag the (slowdown, storage) frontier among eligible cells.

    A cell is dominated when another eligible cell is at least as good
    on both axes and strictly better on one.
    """
    eligible = [cell for cell in cells if cell.oracle_eligible]
    for cell in cells:
        cell.pareto = False
    for cell in eligible:
        dominated = any(
            other is not cell
            and other.slowdown_percent <= cell.slowdown_percent
            and other.storage_bytes <= cell.storage_bytes
            and (
                other.slowdown_percent < cell.slowdown_percent
                or other.storage_bytes < cell.storage_bytes
            )
            for other in eligible
        )
        cell.pareto = not dominated
    # Dominance ties (identical points) would mark both; keep that —
    # they genuinely co-own the frontier point.


def _storage_axes(spec: str, cfg: SystemConfig) -> Tuple[int, int, int]:
    """(sram, llc_reserved, dram_reserved) for one spec at one rung."""
    tracker = build_tracker(spec, cfg)
    stats = tracker.extra_stats()
    llc = int(stats.get("llc_reserved_bytes", 0))
    return tracker.sram_bytes(), llc, tracker.dram_reserved_bytes()


def run_arena(
    config: SystemConfig,
    trackers: Optional[Sequence[str]] = None,
    trh_ladder: Sequence[int] = DEFAULT_TRH_LADDER,
    workloads: Sequence[str] = DEFAULT_ARENA_WORKLOADS,
    sequences: Sequence[str] = ORACLE_SEQUENCES,
    jobs: Optional[int] = None,
    manifest_path: Optional[Union[str, Path]] = None,
    progress: Optional[bool] = None,
) -> ArenaReport:
    """Race every tracker down the T_RH ladder; see the module doc.

    ``trackers`` defaults to the whole registry. The ``baseline``
    column is always included (it anchors the slowdown axis); its own
    slowdown is 0 by construction. Performance grids run through the
    shared :class:`ExperimentRunner` cache, so repeated arena runs
    (and overlapping sweeps) pay for each simulation once; oracle
    cells are cheap enough to re-run but fan out over the same
    ``jobs`` process budget.
    """
    ladder = tuple(trh_ladder)
    if not ladder:
        raise ValueError("trh_ladder must name at least one T_RH rung")
    specs = [canonical_spec(s) for s in (trackers or available_trackers())]
    if "baseline" not in specs:
        specs.insert(0, "baseline")
    report = ArenaReport(
        trh_ladder=ladder,
        workloads=tuple(workloads),
        scale=config.scale,
        engine=config.engine,
    )
    n_jobs = resolve_jobs(jobs)
    oracle_records: List[ArenaOracleRecord] = []
    manifest_dest = None
    grid_spec = GridSpec(trackers=tuple(specs), workloads=tuple(workloads))

    for trh in ladder:
        cfg = config.with_trh(trh)
        runner = ExperimentRunner(
            cfg, jobs=jobs, manifest_path=manifest_path
        )
        manifest_dest = runner.manifest_path
        grid = runner.run_grid(grid_spec, progress=progress)

        outcomes = _run_oracle_battery(
            config, specs, trh, sequences, n_jobs
        )
        for spec in specs:
            info = tracker_info(parse_spec(spec).name)
            if spec == "baseline":
                slowdown = 0.0
            else:
                geomean = grid.comparisons(spec).geomean()
                slowdown = 100.0 * (1.0 / geomean - 1.0)
            sram, llc, dram = _storage_axes(spec, cfg)
            cell = ArenaCell(
                spec=spec,
                trh=trh,
                security_class=info.security_class,
                slowdown_percent=slowdown,
                sram_bytes=sram,
                llc_reserved_bytes=llc,
                dram_reserved_bytes=dram,
                oracle=tuple(outcomes[spec]),
            )
            report.cells.append(cell)
            for outcome in cell.oracle:
                oracle_records.append(
                    ArenaOracleRecord(
                        spec=spec,
                        trh=trh,
                        security_class=info.security_class,
                        sequence=outcome.sequence,
                        secure=outcome.secure,
                        violations=outcome.violations,
                        max_unmitigated=outcome.max_unmitigated,
                        mitigations=outcome.mitigations,
                        activations=outcome.activations,
                        exercised=outcome.exercised,
                    )
                )
        mark_pareto(report.rung(trh))

    if manifest_dest is not None and oracle_records:
        ManifestWriter(manifest_dest).append(oracle_records)
    return report


def _run_oracle_battery(
    config: SystemConfig,
    specs: Sequence[str],
    trh: int,
    sequences: Sequence[str],
    n_jobs: int,
) -> Dict[str, List[OracleOutcome]]:
    """All (spec, sequence) oracle cells for one rung, fanned out."""
    cells = [(config, spec, trh, name) for spec in specs for name in sequences]
    with CellPool.sized(n_jobs, len(cells)) as pool:
        payloads = pool.map(_oracle_cell, cells)
    # Results keep submission order: per spec, sequences as requested.
    outcomes: Dict[str, List[OracleOutcome]] = {spec: [] for spec in specs}
    for payload in payloads:
        outcomes[payload["spec"]].append(
            OracleOutcome(
                sequence=payload["sequence"],
                secure=payload["secure"],
                exercised=payload["exercised"],
                violations=payload["violations"],
                max_unmitigated=payload["max_unmitigated"],
                mitigations=payload["mitigations"],
                activations=payload["activations"],
            )
        )
    return outcomes
