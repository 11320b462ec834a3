"""Result records produced by the simulation harness.

Kept deliberately plain (dataclasses of numbers and small dicts) so
they serialize cleanly to JSON for the benchmark result cache and
EXPERIMENTS.md generation.

The serialized surface is versioned (:data:`SCHEMA_VERSION`) and the
well-known ``extra`` keys are documented in
:data:`WELL_KNOWN_EXTRAS` and promoted to typed accessors — consumers
read ``result.hydra_distribution`` instead of spelunking
``result.extra["distribution"]``. ``from_dict`` stays tolerant:
pre-redesign cache payloads (no ``schema_version``) and newer
payloads with unknown keys both load.

Observability (:mod:`repro.obs`) rides on the *non-serialized*
``observability`` field: it never enters ``to_dict``/``from_dict`` or
equality, so cached payloads and golden-parity comparisons are
byte-identical whether a run was observed or not.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
)

from repro.workloads.characteristics import SUITES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.recorder import RunObservability, WindowSeries

#: Version of the serialized RunResult payload. Bumped by the results
#: API redesign that introduced it; loaders accept any older payload
#: (missing keys fall back to field defaults, unknown keys are
#: dropped).
SCHEMA_VERSION = 2

#: The documented ``RunResult.extra`` keys: name -> (who writes it,
#: meaning). Anything else in ``extra`` is tracker- or
#: engine-private and may change without notice.
WELL_KNOWN_EXTRAS: Dict[str, str] = {
    "distribution": "Hydra: Figure 6 fraction of activation updates"
    " per level (gct_only / rcc_hit / rct_access)",
    "group_inits": "Hydra: groups promoted to per-row tracking",
    "rit_act_activations": "Hydra: activations landing on RCT meta rows",
    "cache_miss_rate": "CRA: metadata-cache miss rate (Figure 2)",
    "total_delay_ns": "both engines: activation delay charged by"
    " rate-control trackers (D-CBF)",
    "read_queue_peak": "queued engine: deepest read queue seen",
    "write_queue_peak": "queued engine: deepest write queue seen",
    "forced_write_drains": "queued engine: high-watermark drains",
    "opportunistic_writes": "queued engine: writes bled while reads idle",
    "row_hit_first_picks": "queued engine: FR-FCFS row-hit promotions",
    "flushed_writes": "queued engine: residual writes drained at end",
    "meta_reads": "queued engine: tracker metadata reads queued",
    "meta_writes": "queued engine: tracker metadata writes queued",
}

#: Extra keys the queued scheduler owns (``scheduler_counters``).
_SCHEDULER_COUNTER_KEYS = (
    "read_queue_peak",
    "write_queue_peak",
    "forced_write_drains",
    "opportunistic_writes",
    "row_hit_first_picks",
    "flushed_writes",
    "meta_reads",
    "meta_writes",
)


@dataclass
class RunResult:
    """One (workload, tracker) simulation outcome."""

    #: Serialized-payload version (class-level: not a field, so
    #: ``to_dict`` and golden payloads are unchanged by the redesign).
    schema_version: ClassVar[int] = SCHEMA_VERSION

    workload: str
    tracker: str
    end_time_ns: float
    requests: int
    average_latency_ns: float
    demand_line_transfers: int
    meta_accesses: int
    meta_line_transfers: int
    victim_refreshes: int
    mitigations: int
    window_resets: int
    activations: int
    bus_utilization: float
    dram_power_w: float
    #: Scheduling engine that produced the run (``fast`` |
    #: ``queued``). Defaults to ``fast`` so pre-engine cached payloads
    #: still load.
    engine: str = "fast"
    #: Tracker- and engine-specific extras (e.g. Hydra's Figure 6
    #: distribution, the queued engine's scheduler counters). See
    #: :data:`WELL_KNOWN_EXTRAS` for the documented keys.
    extra: Dict[str, Any] = field(default_factory=dict)
    #: What an *observed* run recorded (:class:`RunObservability`);
    #: ``None`` otherwise. Excluded from serialization and equality so
    #: observing a run changes nothing downstream.
    observability: Optional["RunObservability"] = field(
        default=None, compare=False, repr=False
    )

    def to_dict(self) -> Dict[str, Any]:
        data = {
            spec.name: copy.deepcopy(getattr(self, spec.name))
            for spec in fields(self)
            if spec.name != "observability"
        }
        return data

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "RunResult":
        """Load a serialized payload, tolerating version drift.

        Pre-redesign payloads carry no ``schema_version`` and load
        unchanged; payloads from newer writers may carry keys this
        build does not know, which are dropped (the cache layer
        validates by round-tripping through this constructor, so a
        payload missing *required* fields is still rejected).
        """
        known = {
            spec.name for spec in fields(RunResult)
        } - {"observability"}
        payload = {k: v for k, v in data.items() if k in known}
        return RunResult(**payload)

    # -- typed accessors over well-known extras ------------------------

    @property
    def hydra_distribution(self) -> Optional[Dict[str, float]]:
        """Figure 6 update distribution (Hydra runs; else ``None``)."""
        return self.extra.get("distribution")

    @property
    def total_delay_ns(self) -> float:
        """Rate-control activation delay charged during the run."""
        return float(self.extra.get("total_delay_ns", 0.0))

    @property
    def flushed_writes(self) -> int:
        """Residual writes drained at end of trace (queued engine)."""
        return int(self.extra.get("flushed_writes", 0))

    @property
    def scheduler_counters(self) -> Dict[str, int]:
        """The queued engine's FR-FCFS counters (empty on fast runs)."""
        return {
            key: self.extra[key]
            for key in _SCHEDULER_COUNTER_KEYS
            if key in self.extra
        }

    @property
    def requests_per_sim_second(self) -> float:
        """Simulated request rate (requests per simulated second)."""
        if self.end_time_ns <= 0:
            return 0.0
        return self.requests / (self.end_time_ns * 1e-9)

    @property
    def window_series(self) -> Optional["WindowSeries"]:
        """Per-window series of an observed run (else ``None``)."""
        if self.observability is None:
            return None
        return self.observability.series


@dataclass(frozen=True)
class Comparison:
    """A tracked run against its no-tracking baseline."""

    workload: str
    tracker: str
    baseline_ns: float
    tracked_ns: float

    @property
    def normalized_performance(self) -> float:
        """Baseline time / tracked time (1.0 = no slowdown, Figure 5's y-axis)."""
        if self.tracked_ns <= 0:
            return 1.0
        return self.baseline_ns / self.tracked_ns

    @property
    def slowdown_percent(self) -> float:
        """Extra execution time in percent (Figures 7, 9, 10's y-axis)."""
        if self.baseline_ns <= 0:
            return 0.0
        return 100.0 * (self.tracked_ns / self.baseline_ns - 1.0)


def geometric_mean(values) -> float:
    """Geometric mean (the paper's aggregation for normalized perf)."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of nothing")
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError("geometric mean requires positive values")
        product *= value
    return product ** (1.0 / len(values))


def _suite_geomeans(
    comparisons: Sequence[Comparison],
) -> Dict[str, float]:
    by_workload = {
        c.workload: c.normalized_performance for c in comparisons
    }
    means: Dict[str, float] = {}
    for suite, members in SUITES.items():
        values = [by_workload[m] for m in members if m in by_workload]
        if values:
            means[suite] = geometric_mean(values)
    return means


class ComparisonResult(List[Comparison]):
    """What ``compare`` returns: a list of Comparison with helpers.

    Still a list (iteration, indexing, and ``len`` behave as before);
    the helpers fold the per-workload comparisons into the paper's
    aggregates so callers stop hand-rolling them.
    """

    def geomean(self) -> float:
        """Geomean normalized performance over every workload present."""
        return geometric_mean(c.normalized_performance for c in self)

    def suite_geomeans(self) -> Dict[str, float]:
        """Geomean normalized performance per suite (Figure 5)."""
        return _suite_geomeans(self)

    def slowdowns(self) -> Dict[str, float]:
        """Percent slowdown per suite (Figures 7/9/10's y-axis)."""
        return {
            suite: 100.0 * (1.0 / value - 1.0)
            for suite, value in self.suite_geomeans().items()
        }

    def to_table(self) -> str:
        """Plain-text per-workload table with a per-suite footer."""
        lines = [f"{'workload':<14} {'norm. perf':>10} {'slowdown':>9}"]
        for comp in self:
            lines.append(
                f"{comp.workload:<14} {comp.normalized_performance:>10.4f}"
                f" {comp.slowdown_percent:>8.2f}%"
            )
        lines.append("-" * 35)
        for suite, mean in self.suite_geomeans().items():
            lines.append(f"{suite:<14} {mean:>10.4f}")
        return "\n".join(lines)


class GridResult(Mapping[str, Dict[str, RunResult]]):
    """What ``run_grid`` returns: tracker -> workload -> RunResult.

    Dict-style access is preserved (``grid[tracker][workload]``,
    iteration over tracker names, ``len``, ``in``), with the
    aggregation helpers callers used to hand-roll on the nested dict.
    """

    def __init__(self, cells: Mapping[str, Mapping[str, RunResult]]) -> None:
        self._cells: Dict[str, Dict[str, RunResult]] = {
            tracker: dict(column) for tracker, column in cells.items()
        }

    # -- Mapping protocol ---------------------------------------------

    def __getitem__(self, tracker: str) -> Dict[str, RunResult]:
        return self._cells[tracker]

    def __iter__(self) -> Iterator[str]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __repr__(self) -> str:
        return (
            f"GridResult(trackers={list(self._cells)},"
            f" workloads={len(self.workloads)})"
        )

    # -- helpers -------------------------------------------------------

    @property
    def trackers(self) -> List[str]:
        return list(self._cells)

    @property
    def workloads(self) -> List[str]:
        for column in self._cells.values():
            return list(column)
        return []

    def comparisons(
        self, tracker: str, baseline: str = "baseline"
    ) -> ComparisonResult:
        """Per-workload comparison of one column against another.

        Both columns must be in the grid; workloads are compared where
        both columns have them.
        """
        tracked_column = self._cells[tracker]
        base_column = self._cells[baseline]
        return ComparisonResult(
            Comparison(
                workload=workload,
                tracker=tracker,
                baseline_ns=base_column[workload].end_time_ns,
                tracked_ns=tracked_column[workload].end_time_ns,
            )
            for workload in tracked_column
            if workload in base_column
        )

    def geomean(
        self, tracker: Optional[str] = None, baseline: str = "baseline"
    ) -> Any:
        """Geomean normalized performance vs the baseline column.

        With ``tracker`` given, one float; without, a dict for every
        non-baseline column in the grid.
        """
        if tracker is not None:
            return self.comparisons(tracker, baseline).geomean()
        return {
            name: self.comparisons(name, baseline).geomean()
            for name in self._cells
            if name != baseline
        }

    def slowdowns(
        self, baseline: str = "baseline"
    ) -> Dict[str, Dict[str, float]]:
        """Per-suite percent slowdowns for every non-baseline column."""
        return {
            name: self.comparisons(name, baseline).slowdowns()
            for name in self._cells
            if name != baseline
        }

    # -- serialization (the sweep service ships grids over HTTP) -------

    def to_payload(self) -> Dict[str, Dict[str, Dict[str, Any]]]:
        """Plain-JSON form: tracker -> workload -> RunResult payload.

        Canonical when dumped with ``sort_keys=True``: two grids with
        the same cells serialize byte-identically, which is what the
        service's resume guarantee is stated in terms of (a preempted
        and resumed job reaches the same ``GridResult`` bytes as an
        uninterrupted run).
        """
        return {
            tracker: {
                workload: result.to_dict()
                for workload, result in column.items()
            }
            for tracker, column in self._cells.items()
        }

    @staticmethod
    def from_payload(
        data: Mapping[str, Mapping[str, Dict[str, Any]]]
    ) -> "GridResult":
        return GridResult(
            {
                tracker: {
                    workload: RunResult.from_dict(payload)
                    for workload, payload in column.items()
                }
                for tracker, column in data.items()
            }
        )

    def to_table(self, attribute: str = "end_time_ns") -> str:
        """Plain-text workloads x trackers table of one result field."""
        trackers = self.trackers
        header = f"{'workload':<14}" + "".join(
            f" {tracker:>14}" for tracker in trackers
        )
        lines = [header]
        for workload in self.workloads:
            cells = []
            for tracker in trackers:
                result = self._cells[tracker].get(workload)
                if result is None:
                    cells.append(f" {'-':>14}")
                    continue
                value = getattr(result, attribute)
                cells.append(
                    f" {value:>14.4g}"
                    if isinstance(value, float)
                    else f" {value:>14}"
                )
            lines.append(f"{workload:<14}" + "".join(cells))
        return "\n".join(lines)
