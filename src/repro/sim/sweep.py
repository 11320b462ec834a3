"""Experiment sweeps: run tracker x workload grids with result caching.

Every figure in the paper's evaluation is a sweep of (tracker
configuration) x (36 workloads), aggregated per suite with geometric
means. :class:`ExperimentRunner` executes those grids, caching each
(config, tracker, workload) run as JSON on disk so the many benchmark
targets that share runs (e.g. Figure 5's Hydra column and Figure 6's
distribution) pay for each simulation once.

Grids are engine-agnostic: ``SystemConfig.engine`` selects the
memory-controller engine (fast in-order vs queued FR-FCFS) for every
cell, and a per-column override rides in the spec string
(``hydra@engine=queued``) — both are part of the cache key, so fast
and queued results share one cache directory without ever being
served for each other.

Every cell is filled by the one cell worker,
:func:`repro.service.worker.run_cell`, on the one executor,
:class:`repro.service.worker.CellPool` — the same pair the sweep
service runs. Cells are independent deterministic simulations, so
``run_grid``/``compare`` can fan them out across a process pool: pass
``jobs=N`` (or ``jobs=0`` for one worker per CPU), or set the
``REPRO_JOBS`` environment variable to change the default for every
sweep. Parallel results are identical to serial ones — each worker
rebuilds the same seeded trace and tracker from the picklable
(config, tracker name, workload name) spec — and results come back in
grid order. Fills are lease-guarded, so two sweeps (or a sweep and a
``hydra-sim serve``) sharing one cache directory simulate each cell
once; a cell whose worker dies is retried with backoff, as in the
service. The disk cache uses atomic writes (see
:mod:`repro.sim.cache`), so concurrent workers and even concurrent
benchmark processes can share one cache directory.

Set ``REPRO_CACHE_DIR`` to relocate the cache; delete it to force
re-simulation.

Provenance: when a manifest destination is configured (an explicit
``manifest_path``, ``$REPRO_MANIFEST``, or — with ``REPRO_OBS=1`` — a
``manifest.jsonl`` next to the cache), every ``run_grid`` appends one
JSON-lines :class:`~repro.obs.manifest.ManifestRecord` per cell:
canonical spec, cache key, engine, cache hit or not, wall time,
throughput. ``hydra-sim report --manifest`` summarizes the log.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.obs.manifest import (
    ManifestRecord,
    ManifestWriter,
    resolve_manifest_path,
)
from repro.sim.cache import ResultCache
from repro.sim.config import (
    CACHE_ENV_VAR,  # noqa: F401  (re-exported; historically lived here)
    SystemConfig,
    default_cache_dir,
    resolve_jobs,
)
from repro.sim.results import (
    Comparison,  # noqa: F401  (re-exported for established importers)
    ComparisonResult,
    GridResult,
    RunResult,
    geometric_mean,  # noqa: F401  (re-exported for established importers)
)
from repro.service.worker import CellPool, cell_record, run_cell, validated_entry
from repro.sim.grid import (  # noqa: F401  (MODEL_VERSION re-exported)
    MODEL_VERSION,
    GridSpec,
    cell_key,
)
from repro.sim.simulator import trace_for_workload
from repro.workloads.characteristics import all_names
from repro.workloads.streaming import TraceSource


class SweepProgress:
    """Per-grid progress/throughput report (cells, hits, sims/sec).

    Writes carriage-return-updated status lines to ``stream`` while a
    sweep runs and one final summary line when it finishes. Enabled
    explicitly, or automatically for multi-cell grids on a terminal.
    """

    def __init__(
        self,
        total: int,
        enabled: Optional[bool] = None,
        stream=None,
        label: str = "sweep",
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        if enabled is None:
            enabled = total > 1 and getattr(
                self.stream, "isatty", lambda: False
            )()
        self.enabled = enabled
        self.total = total
        self.label = label
        self.done = 0
        self.cache_hits = 0
        self._start = time.monotonic()

    @property
    def simulations(self) -> int:
        return self.done - self.cache_hits

    def sims_per_second(self) -> float:
        elapsed = max(time.monotonic() - self._start, 1e-9)
        return self.simulations / elapsed

    def record(self, from_cache: bool) -> None:
        self.done += 1
        if from_cache:
            self.cache_hits += 1
        if self.enabled:
            self.stream.write("\r" + self._status() + " ")
            self.stream.flush()

    def finish(self) -> None:
        if self.enabled and self.done:
            self.stream.write("\r" + self._status() + "\n")
            self.stream.flush()

    def _status(self) -> str:
        return (
            f"[{self.label}] {self.done}/{self.total} cells"
            f" | {self.cache_hits} cache hits"
            f" | {self.sims_per_second():.2f} sims/s"
        )


class ExperimentRunner:
    """Runs and caches (config, tracker, workload) simulations."""

    def __init__(
        self,
        config: SystemConfig,
        cache_dir: Optional[Path] = None,
        use_disk_cache: bool = True,
        jobs: Optional[int] = None,
        manifest_path: Optional[Union[str, Path]] = None,
    ) -> None:
        self.config = config
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.use_disk_cache = use_disk_cache
        #: Default parallelism for grids run through this runner
        #: (``None`` defers to ``REPRO_JOBS``, then serial).
        self.jobs = jobs
        #: Where ``run_grid`` appends per-cell provenance records, or
        #: ``None`` for no manifest (explicit arg > ``$REPRO_MANIFEST``
        #: > cache-adjacent default when observability is on).
        self.manifest_path = resolve_manifest_path(
            manifest_path, self.cache_dir
        )
        self.cache = ResultCache(self.cache_dir)
        self._results: Dict[str, RunResult] = {}

    # ------------------------------------------------------------------

    def trace_for(self, workload_name: str) -> TraceSource:
        return trace_for_workload(self.config, workload_name)

    def run(self, tracker_name: str, workload_name: str) -> RunResult:
        """One simulation, via the in-memory and on-disk caches; a miss
        is filled by the cell worker."""
        key = self._key(tracker_name, workload_name)
        result = self._results.get(key)
        if result is None:
            result = self._load(key)
        if result is None:
            payload, _, _ = run_cell(
                self.config,
                tracker_name,
                workload_name,
                None,
                cache=self._disk_cache(),
            )
            result = RunResult.from_dict(payload)
        self._results[key] = result
        return result

    def _coerce_grid(
        self,
        grid: Union[GridSpec, Sequence[str]],
        workload_names: Optional[Sequence[str]],
    ) -> GridSpec:
        """Normalize the grid argument to a GridSpec against this
        runner's config.

        The positional ``(tracker_names, workload_names)`` form is the
        deprecated shim: it builds the same GridSpec the blessed call
        would pass. A GridSpec carrying its *own* config must agree
        with the runner's — cache keys are computed from the runner's
        config, and silently honouring a different one would mislabel
        every cell.
        """
        if isinstance(grid, GridSpec):
            if workload_names is not None:
                raise ValueError(
                    "pass a GridSpec alone, not together with"
                    " workload_names"
                )
            if grid.config is not None and grid.config != self.config:
                raise ValueError(
                    "GridSpec.config disagrees with this runner's"
                    " config; build the runner from the grid's config"
                    " (repro.api.sweep does) or drop the grid's"
                )
            return grid.with_config(self.config)
        return GridSpec.coerce(grid, workload_names, config=self.config)

    def run_grid(
        self,
        tracker_names: Union[GridSpec, Sequence[str]],
        workload_names: Optional[Sequence[str]] = None,
        jobs: Optional[int] = None,
        progress: Optional[bool] = None,
        job_id: str = "",
    ) -> GridResult:
        """tracker -> workload -> RunResult for the whole grid.

        The blessed argument is a :class:`~repro.sim.grid.GridSpec`;
        the legacy positional ``(tracker_names, workload_names)`` form
        is kept as a thin deprecated shim that builds the equivalent
        GridSpec.

        Returns a :class:`~repro.sim.results.GridResult` — dict-style
        access is unchanged, with ``.comparisons()``/``.slowdowns()``/
        ``.geomean()``/``.to_table()`` on top.

        ``jobs`` > 1 fans uncached cells out over a process pool
        (``jobs=0`` = one worker per CPU; ``None`` defers to the
        runner's default, then ``REPRO_JOBS``, then serial); every
        uncached cell is filled by the lease-guarded cell worker, and
        one whose worker fails is retried with backoff before its own
        exception is re-raised. Results are identical to a serial run
        and come back in grid order. ``progress`` forces the
        cells/hits/throughput report on or off (default: on when
        stderr is a terminal). When the runner has a
        ``manifest_path``, one provenance record per cell is appended
        after the grid completes; ``job_id`` stamps those records.
        """
        spec = self._coerce_grid(tracker_names, workload_names)
        n_jobs = resolve_jobs(jobs if jobs is not None else self.jobs)
        grid: Dict[str, Dict[str, RunResult]] = {t: {} for t in spec.trackers}
        # Hits resolve now; misses carry ``None`` until collected.
        slots = []
        for cell in spec.cells():
            started = time.perf_counter()
            result = self._results.get(cell.key)
            if result is None:
                result = self._load(cell.key)
            slots.append((cell, result, time.perf_counter() - started))
        pending = [cell for cell, result, _ in slots if result is None]
        report = SweepProgress(total=len(slots), enabled=progress)
        # Records are built only when a manifest will be written.
        records: Optional[List[ManifestRecord]] = (
            [] if self.manifest_path is not None else None
        )
        with CellPool.sized(
            n_jobs, len(pending), cache=self._disk_cache()
        ) as pool:
            # Dispatch every miss at once, collect in grid order: no
            # worker idles behind a slow head cell.
            tasks = {cell.key: pool.submit(cell) for cell in pending}
            for cell, result, wall_s in slots:
                from_cache = result is not None
                if result is None:
                    task = pool.wait(tasks[cell.key])
                    if task.error is not None:
                        raise task.error
                    result, from_cache = task.result, task.from_cache
                    wall_s = task.wall_s
                self._results[cell.key] = result
                grid[cell.tracker][cell.workload] = result
                report.record(from_cache=from_cache)
                if records is not None:
                    records.append(
                        cell_record(cell, result, from_cache, wall_s, job_id)
                    )
        report.finish()
        if records:
            ManifestWriter(self.manifest_path).append(records)
        return GridResult(grid)

    def compare(
        self,
        tracker_name: Union[str, GridSpec],
        workload_names: Optional[Sequence[str]] = None,
        baseline_name: str = "baseline",
        jobs: Optional[int] = None,
        progress: Optional[bool] = None,
    ) -> ComparisonResult:
        """Tracked runs vs the no-tracking baseline, per workload.

        Returns a :class:`~repro.sim.results.ComparisonResult` — a
        plain list of :class:`Comparison` plus ``.geomean()``/
        ``.suite_geomeans()``/``.slowdowns()``/``.to_table()``.

        The tracked column may be named by a spec string (the legacy
        shim) or carried in a single-tracker
        :class:`~repro.sim.grid.GridSpec` (whose workload axis is then
        used). Both columns of the comparison go through
        :meth:`run_grid`, so ``jobs``/``REPRO_JOBS`` parallelism
        applies here too.
        """
        if isinstance(tracker_name, GridSpec):
            grid_spec = tracker_name
            if len(grid_spec.trackers) != 1:
                raise ValueError(
                    "compare() takes a single-tracker GridSpec; run"
                    " multi-tracker grids through run_grid()"
                )
            if workload_names is not None:
                raise ValueError(
                    "pass a GridSpec alone, not together with"
                    " workload_names"
                )
            tracker = grid_spec.trackers[0]
            names = grid_spec.resolved_workloads()
        else:
            tracker = tracker_name
            names = (
                list(workload_names) if workload_names else all_names()
            )
        grid = self.run_grid(
            [baseline_name, tracker],
            names,
            jobs=jobs,
            progress=progress,
        )
        return grid.comparisons(tracker, baseline=baseline_name)

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def _key(self, tracker_name: str, workload_name: str) -> str:
        return cell_key(self.config, tracker_name, workload_name)

    def _disk_cache(self) -> Optional[ResultCache]:
        return self.cache if self.use_disk_cache else None

    def _load(self, key: str) -> Optional[RunResult]:
        if not self.use_disk_cache:
            return None
        entry = validated_entry(self.cache, key)
        return None if entry is None else entry[1]


def suite_geomeans(comparisons: Iterable[Comparison]) -> Dict[str, float]:
    """Geomean normalized performance per suite (Figure 5's summary).

    Function form of :meth:`ComparisonResult.suite_geomeans`, kept for
    callers holding a plain comparison iterable.
    """
    return ComparisonResult(comparisons).suite_geomeans()


def suite_slowdowns(comparisons: Iterable[Comparison]) -> Dict[str, float]:
    """Percent slowdown per suite (Figures 7/9/10's y-axis)."""
    return ComparisonResult(comparisons).slowdowns()
