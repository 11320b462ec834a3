"""Experiment sweeps: run tracker x workload grids with result caching.

Every figure in the paper's evaluation is a sweep of (tracker
configuration) x (36 workloads), aggregated per suite with geometric
means. :class:`ExperimentRunner` executes those grids, caching each
(config, tracker, workload) run as JSON on disk so the many benchmark
targets that share runs (e.g. Figure 5's Hydra column and Figure 6's
distribution) pay for each simulation once. ``run_grid`` takes a
:class:`~repro.sim.grid.GridSpec`; ``compare`` takes one tracker spec
string and runs it beside the baseline.

Grids are engine-agnostic: ``SystemConfig.engine`` selects the
memory-controller engine (fast in-order vs queued FR-FCFS) for every
cell, and a per-column override rides in the spec string
(``hydra@engine=queued``) — both are part of the cache key, so fast
and queued results share one cache directory without ever being
served for each other.

Every cell is filled through the result cache by the one cell worker,
:func:`repro.service.worker.run_cell`, and walked by the one executor,
:class:`repro.service.worker.CellPool` — the same pair the sweep
service runs. Every lookup reads the disk cache; a runner keeps no
results in memory. Cells are independent deterministic simulations, so
``run_grid``/``compare`` can fan them out across a process pool: build
the runner with ``jobs=N`` (or ``jobs=0`` for one worker per CPU), or
set the ``REPRO_JOBS`` environment variable to change the default for
every runner built without one. Parallel results are identical to
serial ones — each worker rebuilds the same seeded trace and tracker
from the picklable (config, tracker name, workload name) spec — and
results come back in grid order. Fills are lease-guarded, so two
sweeps (or a sweep and a ``hydra-sim serve``) sharing one cache
directory simulate each cell once; a cell whose worker dies is retried
with backoff, as in the service. The disk cache uses atomic writes
(see :mod:`repro.sim.cache`), so concurrent workers and even
concurrent benchmark processes can share one cache directory.

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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.obs.manifest import (
    ManifestRecord,
    ManifestWriter,
    resolve_manifest_path,
)
from repro.sim.cache import ResultCache
from repro.sim.config import SystemConfig, default_cache_dir, resolve_jobs
from repro.sim.results import ComparisonResult, GridResult, RunResult
from repro.service.worker import CellPool, cell_record, run_cell
from repro.sim.grid import GridSpec, cell_key  # noqa: F401 (re-exported)
from repro.workloads.characteristics import all_names

if TYPE_CHECKING:
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
        jobs: Optional[int] = None,
        manifest_path: Optional[Union[str, Path]] = None,
    ) -> None:
        self.config = config
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        #: Parallelism of every grid run through this runner, the one
        #: place it is set (``None`` defers to ``REPRO_JOBS``, then
        #: serial).
        self.jobs = jobs
        #: Where ``run_grid`` appends per-cell provenance records, or
        #: ``None`` for no manifest (explicit arg > ``$REPRO_MANIFEST``
        #: > cache-adjacent default when observability is on).
        self.manifest_path = resolve_manifest_path(
            manifest_path, self.cache_dir
        )
        self.cache = ResultCache(self.cache_dir)

    # ------------------------------------------------------------------

    def trace_for(self, workload_name: str) -> TraceSource:
        from repro.sim.simulator import trace_for_workload

        return trace_for_workload(self.config, workload_name)

    def run(self, tracker_name: str, workload_name: str) -> RunResult:
        """One simulation through the on-disk cache; a miss is filled
        by the cell worker."""
        payload, _, _ = run_cell(
            self.config, tracker_name, workload_name, None, cache=self.cache
        )
        return RunResult.from_dict(payload)

    def run_grid(
        self,
        grid: GridSpec,
        *,
        progress: Optional[bool] = None,
        job_id: str = "",
    ) -> GridResult:
        """tracker -> workload -> RunResult for the whole grid.

        A :class:`~repro.sim.grid.GridSpec` carrying its own config
        must agree with the runner's: cache keys are computed from the
        runner's config, and silently honouring a different one would
        mislabel every cell.

        Returns a :class:`~repro.sim.results.GridResult` — dict-style
        access, with ``.comparisons()``/``.slowdowns()``/
        ``.geomean()``/``.to_table()`` on top.

        ``CellPool.deliver`` submits every uncached cell at once; the
        runner's ``jobs`` > 1 fans them out over a process pool
        (``jobs=0`` = one worker per CPU; ``None`` defers to
        ``REPRO_JOBS``, then serial). A cell whose worker fails is
        retried with backoff before its own exception is re-raised.
        Results are identical to a serial run and come back in grid
        order. ``progress`` forces the cells/hits/throughput report on
        or off (default: on when stderr is a terminal). When the runner
        has a ``manifest_path``, one provenance record per cell is
        appended after the grid completes; ``job_id`` stamps those
        records.
        """
        if not isinstance(grid, GridSpec):
            raise TypeError(
                f"run_grid takes a GridSpec, not {type(grid).__name__}"
            )
        if grid.config is not None and grid.config != self.config:
            raise ValueError(
                "GridSpec.config disagrees with this runner's"
                " config; build the runner from the grid's config"
                " or drop the grid's"
            )
        spec = grid.with_config(self.config)
        n_cells = spec.n_cells()
        columns: Dict[str, Dict[str, RunResult]] = {
            t: {} for t in spec.trackers
        }
        report = SweepProgress(total=n_cells, enabled=progress)
        # Records are built only when a manifest will be written.
        records: Optional[List[ManifestRecord]] = (
            [] if self.manifest_path is not None else None
        )
        jobs = resolve_jobs(self.jobs)
        with CellPool.sized(jobs, n_cells, cache=self.cache) as pool:
            for outcome in pool.deliver(spec.cells()):
                if outcome.error is not None:
                    raise outcome.error
                cell = outcome.cell
                columns[cell.tracker][cell.workload] = outcome.result
                report.record(from_cache=outcome.from_cache)
                if records is not None:
                    records.append(cell_record(outcome, job_id))
        report.finish()
        if records:
            ManifestWriter(self.manifest_path).append(records)
        return GridResult(columns)

    def compare(
        self,
        tracker_name: str,
        workload_names: Optional[Sequence[str]] = None,
        baseline_name: str = "baseline",
        progress: Optional[bool] = None,
    ) -> ComparisonResult:
        """Tracked runs vs the no-tracking baseline, per workload.

        ``tracker_name`` is a spec string; ``workload_names`` defaults
        to all 36. Returns a :class:`~repro.sim.results.ComparisonResult`
        — a plain list of :class:`~repro.sim.results.Comparison` plus
        ``.geomean()``/``.suite_geomeans()``/``.slowdowns()``/
        ``.to_table()``. Both columns go through :meth:`run_grid`, so
        the runner's ``jobs``/``REPRO_JOBS`` parallelism applies here
        too.
        """
        if not isinstance(tracker_name, str):
            raise TypeError(
                "compare takes a tracker spec string; run a GridSpec"
                " through run_grid()"
            )
        grid = self.run_grid(
            GridSpec(
                trackers=(baseline_name, tracker_name),
                workloads=tuple(workload_names or all_names()),
            ),
            progress=progress,
        )
        return grid.comparisons(tracker_name, baseline=baseline_name)
