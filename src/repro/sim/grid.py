"""GridSpec: one value object answering "what grid should run?".

Every sweep — ``ExperimentRunner.run_grid``, ``repro.api.sweep`` and
the sweep service (DESIGN.md §15) — is named by one
:class:`GridSpec`: a grid that serializes, round-trips canonically,
and enumerates its own cells so a broker can shard them. Each cell is
one spec string run under one :class:`~repro.sim.config.SystemConfig`,
exactly what ``simulate`` takes:

- ``trackers`` — registry spec strings, canonicalized on construction
  so spelling variants of one configuration compare (and cache) equal;
- ``workloads`` — workload names, or empty for the full 36-workload
  suite (resolved lazily so the spec itself stays small);
- ``config`` — the :class:`~repro.sim.config.SystemConfig` every cell
  runs under, or ``None`` to defer to the caller's config (the
  in-process ``run_grid`` path); the service requires it.

``cells()`` yields one :class:`GridCell` per (tracker, workload) pair
in deterministic order, each carrying its content-addressed cache key,
and ``to_json``/``from_json`` round-trip the spec canonically:
``GridSpec.from_json(spec.to_json()) == spec`` and two specs naming
the same grid serialize to byte-identical JSON (``grid_key`` hashes
exactly that).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.sim.config import SystemConfig
from repro.trackers.registry import build_tracker, canonical_spec, parse_spec
from repro.workloads.characteristics import all_names

#: Bump to invalidate cached results when the model changes materially.
MODEL_VERSION = "v1"


def cell_key(
    config: SystemConfig, tracker_name: str, workload_name: str
) -> str:
    """Stable cache key of one grid cell (shared with pool workers).

    Tracker specs are canonicalized first, so spelling variants of one
    configuration (``hydra@trh=250, rcc_ways=8`` vs
    ``hydra@rcc_ways=8,trh=250``) share a cache entry — and invalid
    specs fail fast here, before any work is fanned out. The engine
    participates twice: via ``config.cache_key()`` and via any
    ``engine=`` spec override, so fast and queued results never share
    a key.
    """
    return _format_key(
        config.cache_key(), canonical_spec(tracker_name), workload_name
    )


def _format_key(config_key: str, spec: str, workload_name: str) -> str:
    """The key of a cell whose config key and canonical spec are known
    (``GridSpec.cells`` computes each once per grid and per column)."""
    raw = f"{MODEL_VERSION}|{config_key}|{spec}|{workload_name}"
    return hashlib.sha256(raw.encode()).hexdigest()[:24]


@dataclass(frozen=True)
class GridCell:
    """One (tracker, workload) cell of a grid, with its cache key."""

    tracker: str
    workload: str
    config: SystemConfig
    #: Content-addressed cache key (:func:`cell_key`):
    #: identical cells — across jobs, brokers, and machines sharing a
    #: cache directory — collide here on purpose.
    key: str
    #: ``tracker``'s canonical spec (what manifests record).
    spec: str


@dataclass(frozen=True)
class GridSpec:
    """Immutable description of one tracker x workload sweep grid."""

    trackers: Tuple[str, ...]
    workloads: Tuple[str, ...] = ()
    config: Optional[SystemConfig] = field(default=None)

    def __post_init__(self) -> None:
        if not self.trackers:
            raise ValueError("a GridSpec needs at least one tracker spec")
        object.__setattr__(self, "trackers", tuple(self.trackers))
        object.__setattr__(self, "workloads", tuple(self.workloads))
        # Validate eagerly: an invalid tracker spec or workload fails
        # here, before any work is enqueued or shipped to a broker.
        # Spellings are *kept* as given — GridResult columns stay
        # keyed by what the caller wrote — while ``canonical()`` /
        # ``grid_key()`` provide the normalized identity.
        for tracker in self.trackers:
            canonical_spec(tracker)
        known = set(all_names())
        for name in self.workloads:
            if name not in known:
                raise ValueError(f"unknown workload {name!r}")

    # ------------------------------------------------------------------

    def resolved_workloads(self) -> List[str]:
        """The workload axis, with the empty default meaning all 36."""
        return list(self.workloads) if self.workloads else all_names()

    def resolved_config(self) -> SystemConfig:
        """The config cells run under."""
        if self.config is None:
            raise ValueError(
                "this GridSpec carries no SystemConfig; attach one"
                " (with_config)"
            )
        return self.config

    def check_trackers(self) -> None:
        """Build each spec that carries parameters once against the
        config, refusing one its builder refuses (naming the spec).
        ``SweepBroker.submit`` calls it; constructing a grid does not."""
        config = self.resolved_config()
        for tracker in dict.fromkeys(self.trackers):
            if parse_spec(tracker).params:
                try:
                    build_tracker(tracker, config)
                except (ValueError, ArithmeticError) as exc:
                    raise ValueError(f"tracker spec {tracker!r}: {exc}") from None

    def with_config(self, config: SystemConfig) -> "GridSpec":
        """The same grid pinned to an explicit config (service path)."""
        return GridSpec(
            trackers=self.trackers, workloads=self.workloads, config=config
        )

    def canonical(self) -> "GridSpec":
        """The normalized identity of this grid.

        Tracker specs are canonicalized (stable across spacing and
        parameter ordering) and the workload default is resolved, so
        two spellings of one grid compare — and ``grid_key()`` — equal.
        """
        return GridSpec(
            trackers=tuple(canonical_spec(t) for t in self.trackers),
            workloads=tuple(self.resolved_workloads()),
            config=self.config,
        )

    def n_cells(self) -> int:
        return len(self.trackers) * len(self.resolved_workloads())

    def cells(self) -> Iterator[GridCell]:
        """Yield every cell in deterministic tracker-major order.

        Each key equals :func:`cell_key` of its cell; the config key is
        built once per grid and the canonical spec once per column.
        """
        config = self.resolved_config()
        config_key = config.cache_key()
        workloads = self.resolved_workloads()
        for tracker in self.trackers:
            spec = canonical_spec(tracker)
            for workload in workloads:
                yield GridCell(
                    tracker=tracker,
                    workload=workload,
                    config=config,
                    key=_format_key(config_key, spec, workload),
                    spec=spec,
                )

    # ------------------------------------------------------------------
    # Canonical JSON round-trip
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "trackers": list(self.trackers),
            "workloads": list(self.workloads),
        }
        if self.config is not None:
            data["config"] = self.config.to_dict()
        return data

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "GridSpec":
        config = data.get("config")
        return GridSpec(
            trackers=tuple(data["trackers"]),
            workloads=tuple(data.get("workloads", ())),
            config=SystemConfig.from_dict(config) if config else None,
        )

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace variance."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "GridSpec":
        return GridSpec.from_dict(json.loads(text))

    def grid_key(self) -> str:
        """Content hash of the canonical form (job identity)."""
        return hashlib.sha256(
            self.canonical().to_json().encode()
        ).hexdigest()[:16]
