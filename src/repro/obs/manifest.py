"""Structured run manifests: one JSON-lines record per grid cell.

A sweep answers "what were the numbers?"; the manifest answers "what
exactly ran, and what did it cost?": for every (tracker spec,
workload) cell that ``run_grid`` touches, one append-only JSON line
records the canonical spec, the cell's cache key, the engine, whether
the result came from the cache, the wall time, and the simulated
request throughput. Manifests accumulate across sweeps (JSON lines
append cleanly), survive crashes (each line is written whole), and
are forward-tolerant (unknown keys from newer writers are ignored,
corrupt lines are skipped and counted).

``hydra-sim report --manifest PATH`` renders a summary; see
:func:`summarize_manifest`.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: Bump when a record gains/changes meaning; readers keep loading old
#: versions (missing keys take field defaults).
MANIFEST_SCHEMA_VERSION = 1

#: Environment variable naming the manifest file every sweep appends
#: to (explicit ``manifest_path`` arguments win).
MANIFEST_ENV_VAR = "REPRO_MANIFEST"


@dataclass(frozen=True)
class ManifestRecord:
    """One grid cell's provenance line."""

    cache_key: str
    spec: str
    workload: str
    engine: str
    from_cache: bool
    #: Wall-clock seconds to produce the cell (simulation time, or
    #: cache-load time when ``from_cache``).
    wall_time_s: float
    requests: int
    end_time_ns: float
    #: Simulated requests per wall-clock second (0.0 for cache hits —
    #: a cache load's wall time says nothing about simulation speed).
    throughput_rps: float = 0.0
    #: Sweep-service job the cell was produced for ("" outside the
    #: service). Job-scoped manifests let ``GET /jobs/<id>/events``
    #: stream exactly one job's cells while everything still appends
    #: to ordinary JSON-lines files.
    job_id: str = ""
    schema_version: int = MANIFEST_SCHEMA_VERSION
    #: Record discriminator: manifests interleave grid-cell provenance
    #: (``"cell"``) with other writers (e.g. the arena's
    #: ``"arena-oracle"`` lines); readers dispatch on it.
    kind: str = "cell"

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ManifestRecord":
        return _load_record(ManifestRecord, data)


@dataclass(frozen=True)
class ArenaOracleRecord:
    """One arena security-oracle verdict: (tracker, T_RH, sequence).

    Appended to the same JSON-lines manifest as grid-cell records
    (``kind`` keeps the streams separable), so one file carries both
    the performance provenance and the oracle outcomes of an arena
    run.
    """

    spec: str
    trh: int
    security_class: str
    sequence: str
    secure: bool
    violations: int
    max_unmitigated: int
    mitigations: int
    activations: int
    #: Whether the sequence could have driven any row past the
    #: threshold at all — an unexercised "secure" verdict is vacuous.
    exercised: bool
    schema_version: int = MANIFEST_SCHEMA_VERSION
    kind: str = "arena-oracle"

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ArenaOracleRecord":
        return _load_record(ArenaOracleRecord, data)


@dataclass(frozen=True)
class FuzzOracleRecord:
    """One fuzzer verdict: (tracker, T_RH, generated program).

    The attack fuzzer (:mod:`repro.attacks.fuzz`) drives every
    registered tracker with seeded random hammer programs and judges
    the outcomes with the arena's class-aware logic; each judged cell
    appends one of these lines. ``program_seed`` plus the fuzzer's
    corpus parameters reproduce the program exactly.
    """

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
    schema_version: int = MANIFEST_SCHEMA_VERSION
    kind: str = "fuzz-oracle"

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FuzzOracleRecord":
        return _load_record(FuzzOracleRecord, data)


def make_record(
    *,
    cache_key: str,
    spec: str,
    workload: str,
    engine: str,
    from_cache: bool,
    wall_time_s: float,
    requests: int,
    end_time_ns: float,
    job_id: str = "",
) -> ManifestRecord:
    """Build a record, deriving throughput from wall time."""
    throughput = 0.0
    if not from_cache and wall_time_s > 0:
        throughput = requests / wall_time_s
    return ManifestRecord(
        cache_key=cache_key,
        spec=spec,
        workload=workload,
        engine=engine,
        from_cache=from_cache,
        wall_time_s=wall_time_s,
        requests=requests,
        end_time_ns=end_time_ns,
        throughput_rps=throughput,
        job_id=job_id,
    )


class ManifestWriter:
    """Appends records to a JSON-lines manifest file."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def append(self, records: Iterable[ManifestRecord]) -> int:
        """Append records (one JSON line each); returns lines written."""
        lines = [
            json.dumps(record.to_dict(), sort_keys=True)
            for record in records
        ]
        if not lines:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return len(lines)


#: The record class of each ``kind`` a manifest line may carry.
RECORD_KINDS = {
    "cell": ManifestRecord,
    "arena-oracle": ArenaOracleRecord,
    "fuzz-oracle": FuzzOracleRecord,
}


def _load_record(record_class: Any, data: Dict[str, Any]) -> Any:
    """One record, tolerating unknown (newer-writer) keys."""
    known = {f.name for f in fields(record_class)}
    return record_class(**{k: v for k, v in data.items() if k in known})


def read_records(
    path: Union[str, Path], kind: str = "cell"
) -> Tuple[List[Any], int]:
    """Load one kind of line from a manifest.

    Returns ``(records, skipped_line_count)``: the lines whose
    ``kind`` (``"cell"`` when absent, as in old writers' lines) is
    ``kind``, parsed as that kind's record class. Lines of other kinds
    are another writer's stream and are passed over silently; only
    corrupt or unparseable lines count as skipped, never fatal — a
    manifest is an append-only log that may interleave writers or
    lose a tail on a crash, and its job is to describe whatever
    survived.
    """
    record_class = RECORD_KINDS[kind]
    records: List[Any] = []
    skipped = 0
    text = Path(path).read_text(encoding="utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            if data.get("kind", "cell") != kind:
                continue
            records.append(_load_record(record_class, data))
        except (ValueError, TypeError, AttributeError):
            skipped += 1
    return records, skipped


def summarize_manifest(
    records: Sequence[ManifestRecord],
) -> Dict[str, Any]:
    """Aggregate a manifest for reporting (cells, cost, throughput)."""
    simulated = [r for r in records if not r.from_cache]
    sim_wall = sum(r.wall_time_s for r in simulated)
    sim_requests = sum(r.requests for r in simulated)
    by_engine: Dict[str, int] = {}
    by_spec: Dict[str, int] = {}
    for record in records:
        by_engine[record.engine] = by_engine.get(record.engine, 0) + 1
        by_spec[record.spec] = by_spec.get(record.spec, 0) + 1
    return {
        "cells": len(records),
        "cache_hits": len(records) - len(simulated),
        "simulated": len(simulated),
        "simulated_wall_s": sim_wall,
        "simulated_requests": sim_requests,
        "requests_per_second": (
            sim_requests / sim_wall if sim_wall > 0 else 0.0
        ),
        "by_engine": by_engine,
        "by_spec": by_spec,
    }


def resolve_manifest_path(
    explicit: Optional[Union[str, Path]], cache_dir: Union[str, Path]
) -> Optional[Path]:
    """Where (if anywhere) a runner should write its manifest.

    Precedence: an explicit path argument, then ``$REPRO_MANIFEST``,
    then — only when observability is enabled — ``manifest.jsonl``
    next to the result cache. With all three unset, no manifest is
    written (sweeps stay write-free beyond the result cache).
    """
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(MANIFEST_ENV_VAR, "").strip()
    if env:
        return Path(env)
    from repro.obs import obs_enabled

    if obs_enabled():
        return Path(cache_dir) / "manifest.jsonl"
    return None
