"""The sweep job broker: shard grids across workers, cache-first.

``SweepBroker`` turns submitted :class:`~repro.sim.grid.GridSpec`s
into filled result-cache entries. Design invariants (DESIGN.md §15):

- **The cache is the system of record.** A job's durable state is its
  spec + status + manifest (see :mod:`repro.service.jobs`); cell
  payloads live only in the content-addressed
  :class:`~repro.sim.cache.ResultCache`. Kill the broker at any point,
  start a new one on the same directories, call :meth:`resume`, and
  every job completes having re-simulated only the cells that never
  made it to the cache.
- **In-flight dedup.** Cells are identified by their canonical cache
  key, so two jobs wanting the same (config, tracker, workload) —
  submitted concurrently or not — share one in-flight task in this
  broker, and the lease protocol extends the same guarantee across
  broker processes sharing a cache directory.
- **Per-cell retry with backoff.** A worker crash (or a broken
  process pool) fails one attempt of one cell, not the job: the cell
  is retried up to ``max_retries`` times with exponential backoff
  before the job is marked FAILED. The clock and sleep are injectable
  so tests drive the schedule deterministically.
- **Preemption.** :meth:`cancel` stops a job between cells; cells
  already dispatched run to completion (their cache entries are kept
  — cancelling a job never poisons another job's cells).
- **Batched records.** A recorded cell goes to an in-memory buffer
  on its job; the live :class:`JobStatus` advances per cell, but the
  manifest and ``status.json`` are written once per *flush* (before
  blocking on an unfinished cell, when a ``step`` budget is spent,
  and when the job ends). A cell is buffered only once its payload
  is in the cache, so a kill between flushes loses bookkeeping, never
  a simulation: :meth:`resume` serves those cells as cache hits.

Execution pools: ``"process"`` (default — one OS process per worker,
the same isolation the parallel sweep uses), ``"thread"`` (shared
memory; the in-process default for tests and ``repro.api.sweep``),
and ``"inline"`` (no concurrency; deterministic single-step tests).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.manifest import (
    ManifestRecord,
    ManifestWriter,
    make_record,
    read_manifest,
)
from repro.sim.cache import DEFAULT_LEASE_TTL_S, ResultCache
from repro.sim.config import default_cache_dir, resolve_jobs
from repro.sim.grid import GridCell, GridSpec
from repro.sim.results import GridResult, RunResult
from repro.sim.sweep import _validated_entry
from repro.service.jobs import (
    ACTIVE_STATES,
    CANCELLED,
    COMPLETED,
    FAILED,
    PENDING,
    RUNNING,
    JobHandle,
    JobStatus,
    JobStore,
)
from repro.service.worker import run_cell
from repro.trackers.registry import canonical_spec

#: Default cap on re-attempts of one cell after worker failures.
DEFAULT_MAX_RETRIES = 2
#: Base of the exponential backoff between attempts (seconds).
DEFAULT_BACKOFF_S = 0.5

CellRunner = Callable[..., Any]


class BrokerError(RuntimeError):
    """A request the broker cannot honour (unknown job, bad spec)."""


class _InlineExecutor:
    """Executor that runs the submission immediately in the caller.

    Keeps the dispatch/collect code shape identical across pools while
    making single-threaded tests (and ``step``-driven flows) fully
    deterministic.
    """

    def submit(self, fn, *args, **kwargs) -> "Future[Any]":
        future: "Future[Any]" = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # recorded, surfaced on .result()
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True) -> None:  # noqa: ARG002
        pass


class _CellTask:
    """One in-flight cache fill, shared by every job that wants it."""

    def __init__(self, cell: GridCell) -> None:
        self.cell = cell
        self.attempts = 0
        self.future: Optional["Future[Any]"] = None
        self.result: Optional[RunResult] = None
        self.from_cache = False
        self.wall_s = 0.0
        self.error: Optional[BaseException] = None
        self._done = threading.Event()
        #: Serializes the retry loop: the first waiter drives
        #: resubmission, later waiters just block on ``_done``.
        self._drive = threading.Lock()


class _Job:
    """In-memory face of one submitted grid."""

    def __init__(self, job_id: str, spec: GridSpec, status: JobStatus) -> None:
        self.job_id = job_id
        self.spec = spec
        self.status = status
        self.cancel_event = threading.Event()
        self.thread: Optional[threading.Thread] = None
        #: Cache keys already recorded for this job (skip on re-entry).
        self.done_keys: set = set()
        #: Recorded cells not yet in the manifest (see ``_flush``).
        self.pending: List[ManifestRecord] = []


class SweepBroker:
    """Shards spec grids across a worker pool, cache-first."""

    def __init__(
        self,
        state_dir: Optional[Path] = None,
        cache_dir: Optional[Path] = None,
        pool: str = "process",
        workers: Optional[int] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
        cell_runner: Optional[CellRunner] = None,
    ) -> None:
        if pool not in ("process", "thread", "inline"):
            raise ValueError(f"unknown pool kind {pool!r}")
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.store = JobStore(state_dir if state_dir else self.cache_dir)
        self.cache = ResultCache(self.cache_dir)
        self.pool = pool
        self.workers = resolve_jobs(workers)
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.lease_ttl_s = lease_ttl_s
        self._clock = clock
        self._sleep = sleep
        self._cell_runner = cell_runner if cell_runner is not None else run_cell
        self._jobs: Dict[str, _Job] = {}
        self._in_flight: Dict[str, _CellTask] = {}
        self._lock = threading.Lock()
        # The executor gets its own lock: _acquire_task submits while
        # holding _lock, and _get_executor must not re-take it.
        self._exec_lock = threading.Lock()
        self._executor = None

    # ------------------------------------------------------------------
    # Submission / lifecycle
    # ------------------------------------------------------------------

    def submit(self, grid: GridSpec, start: bool = True) -> str:
        """Persist a grid as a new job; returns its id.

        ``start=False`` leaves the job PENDING for :meth:`step` (tests
        and external schedulers); the default spawns the job thread.
        """
        config = grid.resolved_config()  # raises if the spec has none
        grid = grid.with_config(config)
        job_id = self._new_job_id(grid)
        status = JobStatus(
            job_id=job_id,
            state=PENDING,
            grid_key=grid.grid_key(),
            total_cells=grid.n_cells(),
            created_at=self._clock(),
            updated_at=self._clock(),
        )
        job = _Job(job_id, grid, status)
        self.store.create(job_id, grid, status)
        with self._lock:
            self._jobs[job_id] = job
        if start:
            self._start(job)
        return job_id

    def resume(self, start: bool = True) -> List[str]:
        """Adopt every persisted non-terminal job; returns their ids.

        The restart path: a broker that died mid-grid left jobs in
        PENDING/RUNNING on disk. Each is reloaded from its spec and
        re-walked; cells whose payloads already sit in the cache are
        served from it, so nothing completed is ever re-simulated.
        """
        resumed = []
        for job_id in self.store.list_jobs():
            with self._lock:
                if job_id in self._jobs:
                    continue
            status = self.store.load_status(job_id)
            if status is None or status.state not in ACTIVE_STATES:
                continue
            try:
                spec = self.store.load_spec(job_id)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                # One unreadable job (say, a spec naming a removed
                # engine) must not keep the others from resuming.
                status.state = FAILED
                status.error = f"cannot resume: {exc}"
                status.updated_at = self._clock()
                self.store.write_status(status)
                continue
            job = _Job(job_id, spec, status)
            self._reload_done(job)
            with self._lock:
                self._jobs[job_id] = job
            resumed.append(job_id)
            if start:
                self._start(job)
        return resumed

    def _reload_done(self, job: _Job) -> None:
        """Rebuild a resumed job's recorded cells and counters.

        The manifest — appended before the status snapshot — is the
        truth of which cells were already recorded; ``status.json``
        may lag it by a whole flush. Without this, a resumed job would
        re-append (and re-count) cells, or under-count its hits.
        """
        path = self.store.manifest_path(job.job_id)
        if not path.is_file():
            return
        records, _ = read_manifest(path)
        from_cache = {
            r.cache_key: r.from_cache
            for r in records
            if r.job_id == job.job_id
        }
        job.done_keys = set(from_cache)
        job.status.completed_cells = len(from_cache)
        job.status.cache_hits = sum(from_cache.values())

    def cancel(self, job_id: str) -> JobStatus:
        """Preempt a job: no further cells are dispatched for it."""
        job = self._get(job_id)
        if job.status.state in ACTIVE_STATES:
            job.cancel_event.set()
            if job.thread is None or not job.thread.is_alive():
                # Nothing is driving the job; finalize immediately.
                self._finalize(job, CANCELLED)
        return job.status

    def shutdown(self, wait: bool = True) -> None:
        """Stop dispatching and (optionally) wait for job threads."""
        with self._lock:
            threads = [
                job.thread
                for job in self._jobs.values()
                if job.thread is not None
            ]
        with self._exec_lock:
            executor, self._executor = self._executor, None
        if wait:
            for thread in threads:
                thread.join()
        if executor is not None:
            executor.shutdown(wait=wait)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self, job_id: str) -> JobStatus:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is not None:
            return job.status
        status = self.store.load_status(job_id)
        if status is None:
            raise BrokerError(f"unknown job {job_id!r}")
        return status

    def jobs(self) -> List[JobStatus]:
        """Every known job's status, persisted ones included."""
        statuses: Dict[str, JobStatus] = {}
        for job_id in self.store.list_jobs():
            loaded = self.store.load_status(job_id)
            if loaded is not None:
                statuses[job_id] = loaded
        with self._lock:
            for job_id, job in self._jobs.items():
                statuses[job_id] = job.status
        return list(statuses.values())

    def events(self, job_id: str) -> List[Dict[str, Any]]:
        """The per-cell manifest records a job has produced so far."""
        path = self.store.manifest_path(job_id)
        if not path.is_file():
            self._get(job_id)  # raise on unknown job
            return []
        records, _ = read_manifest(path)
        return [r.to_dict() for r in records if r.job_id == job_id]

    def result(self, job_id: str) -> GridResult:
        """Assemble the completed job's GridResult from the cache.

        Falls back to the persisted spec/status so results of jobs
        completed before a broker restart stay servable.
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is not None:
            status = job.status
        else:
            status = self.store.load_status(job_id)
            if status is None:
                raise BrokerError(f"unknown job {job_id!r}")
        if status.state != COMPLETED:
            raise BrokerError(
                f"job {job_id} is {status.state}, not completed"
            )
        spec = job.spec if job is not None else self.store.load_spec(job_id)
        grid: Dict[str, Dict[str, RunResult]] = {}
        for cell in spec.cells():
            entry = _validated_entry(self.cache, cell.key)
            if entry is None:
                raise BrokerError(
                    f"cache entry for cell ({cell.tracker},"
                    f" {cell.workload}) vanished; re-run the job"
                )
            grid.setdefault(cell.tracker, {})[cell.workload] = entry[1]
        return GridResult(grid)

    def handle(self, job_id: str) -> "LocalJobHandle":
        self.status(job_id)  # raises on unknown job, memory or disk
        return LocalJobHandle(self, job_id)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self, job_id: str, max_cells: Optional[int] = None) -> JobStatus:
        """Drive a job synchronously for up to ``max_cells`` cells.

        The test- and scheduler-facing entry: no thread is spawned,
        the caller's thread does the work, and the job is left RUNNING
        (resumable) if the budget runs out before the grid is full.
        """
        job = self._get(job_id)
        if job.status.state in ACTIVE_STATES:
            self._advance(job, limit=max_cells)
        return job.status

    def _start(self, job: _Job) -> None:
        thread = threading.Thread(
            target=self._run,
            args=(job,),
            name=f"sweep-job-{job.job_id}",
            daemon=True,
        )
        job.thread = thread
        thread.start()

    def _run(self, job: _Job) -> None:
        """Job-thread body: a failed flush fails the job, in memory.

        ``status.json`` keeps its last flushed (active) state, so a
        restarted broker resumes the job; clients stop waiting now.
        """
        try:
            self._advance(job)
        except Exception as exc:
            if not job.status.done:
                job.status.error = f"could not record progress: {exc}"
                job.status.state = FAILED

    def _advance(self, job: _Job, limit: Optional[int] = None) -> None:
        """Walk the job's grid: cache first, then dispatched tasks.

        Dispatch runs ahead of collection by a bounded window (never
        past the ``limit`` budget) so the pool stays busy, while cells
        are *recorded* in deterministic grid order (events and
        progress counts are reproducible). Records are flushed only
        before blocking on an unfinished task, when the budget is
        spent, and when the job ends — a fully cached job writes its
        manifest and status once.
        """
        if job.status.state == PENDING:
            self._set_state(job, RUNNING)
        remaining = deque(
            cell for cell in job.spec.cells()
            if cell.key not in job.done_keys
        )
        window = max(2 * self.workers, 2)
        dispatched: "deque[tuple[GridCell, _CellTask]]" = deque()
        recorded = 0

        def top_up() -> None:
            ahead = window if limit is None else min(window, limit - recorded)
            while remaining and len(dispatched) < ahead:
                cell = remaining.popleft()
                started = time.perf_counter()
                entry = _validated_entry(self.cache, cell.key)
                if entry is not None:
                    task = _CellTask(cell)
                    task.result = entry[1]
                    task.from_cache = True
                    task.wall_s = time.perf_counter() - started
                    task._done.set()
                    dispatched.append((cell, task))
                else:
                    dispatched.append((cell, self._acquire_task(cell)))

        while True:
            if job.cancel_event.is_set():
                self._finalize(job, CANCELLED)
                return
            if limit is not None and recorded >= limit:
                self._flush(job)
                return  # budget spent; job stays RUNNING on disk
            top_up()
            if not dispatched:
                break
            cell, task = dispatched.popleft()
            if not task._done.is_set():
                self._flush(job)
                self._wait(task)
            if task.error is not None:
                job.status.error = (
                    f"cell ({cell.tracker}, {cell.workload}) failed"
                    f" after {task.attempts} attempts: {task.error}"
                )
                self._finalize(job, FAILED)
                return
            self._record(job, cell, task)
            recorded += 1
        self._finalize(job, COMPLETED)

    def _record(self, job: _Job, cell: GridCell, task: _CellTask) -> None:
        """Count a cached cell on the live status and buffer its record."""
        job.done_keys.add(cell.key)
        status = job.status
        status.completed_cells += 1
        if task.from_cache:
            status.cache_hits += 1
        status.retries += max(task.attempts - 1, 0)
        status.updated_at = self._clock()
        result = task.result
        job.pending.append(
            make_record(
                cache_key=cell.key,
                spec=canonical_spec(cell.tracker),
                workload=cell.workload,
                engine=result.engine,
                from_cache=task.from_cache,
                wall_time_s=task.wall_s,
                requests=result.requests,
                end_time_ns=result.end_time_ns,
                job_id=job.job_id,
            )
        )

    # -- in-flight task management -------------------------------------

    def _acquire_task(self, cell: GridCell) -> _CellTask:
        """The shared task filling this cell's cache key.

        One canonical key maps to at most one live task, however many
        jobs want it — this is the broker-local half of in-flight
        dedup (leases extend it across processes).
        """
        with self._lock:
            task = self._in_flight.get(cell.key)
            if task is None:
                task = _CellTask(cell)
                task.future = self._submit_cell(cell)
                self._in_flight[cell.key] = task
            return task

    def _submit_cell(self, cell: GridCell) -> "Future[Any]":
        kwargs = {}
        if self.pool != "process":
            # Share the broker's cache instance so its stores /
            # leases_reclaimed counters observe worker activity.
            kwargs["cache"] = self.cache
        return self._get_executor().submit(
            self._cell_runner,
            cell.config,
            cell.tracker,
            cell.workload,
            str(self.cache_dir),
            self.lease_ttl_s,
            **kwargs,
        )

    def _wait(self, task: _CellTask) -> None:
        """Block until the task is done, driving retries if first."""
        if task._done.is_set():
            return
        with task._drive:
            while not task._done.is_set():
                try:
                    task.attempts += 1
                    payload, from_cache, wall_s = task.future.result()
                    task.result = RunResult.from_dict(payload)
                    task.from_cache = from_cache
                    task.wall_s = wall_s
                    task.error = None
                    task._done.set()
                except BaseException as exc:
                    if isinstance(exc, BrokenProcessPool):
                        self._discard_executor()
                    if task.attempts > self.max_retries:
                        task.error = exc
                        task._done.set()
                        break
                    # Exponential backoff before the next attempt —
                    # injectable sleep, so tests pin the schedule.
                    self._sleep(
                        self.backoff_s * (2 ** (task.attempts - 1))
                    )
                    task.future = self._submit_cell(task.cell)
        with self._lock:
            self._in_flight.pop(task.cell.key, None)

    # -- executor plumbing ---------------------------------------------

    def _get_executor(self):
        with self._exec_lock:
            if self._executor is None:
                self._executor = self._make_executor()
            return self._executor

    def _make_executor(self):
        if self.pool == "inline":
            return _InlineExecutor()
        if self.pool == "thread":
            return ThreadPoolExecutor(max_workers=self.workers)
        return ProcessPoolExecutor(max_workers=self.workers)

    def _discard_executor(self) -> None:
        """Drop a broken pool so the next submit builds a fresh one."""
        with self._exec_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)

    # -- bookkeeping ---------------------------------------------------

    def _get(self, job_id: str) -> _Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise BrokerError(f"unknown job {job_id!r}")
        return job

    def _new_job_id(self, grid: GridSpec) -> str:
        return f"{grid.grid_key()[:8]}-{os.urandom(4).hex()}"

    def _set_state(self, job: _Job, state: str) -> None:
        job.status.state = state
        job.status.updated_at = self._clock()
        self.store.write_status(job.status)

    def _finalize(self, job: _Job, state: str) -> None:
        # Records land before the terminal state is visible, so an
        # event reader's final drain after ``done`` misses none.
        self._append_pending(job)
        self._set_state(job, state)

    def _flush(self, job: _Job) -> None:
        """Persist buffered records: one manifest append, then status.

        In that order, because resume trusts the manifest; a failed
        append keeps the buffer for the next flush.
        """
        if job.pending:
            self._append_pending(job)
            self.store.write_status(job.status)

    def _append_pending(self, job: _Job) -> None:
        if job.pending:
            ManifestWriter(self.store.manifest_path(job.job_id)).append(
                job.pending
            )
            job.pending = []


class LocalJobHandle(JobHandle):
    """JobHandle over a broker living in this process."""

    def __init__(self, broker: SweepBroker, job_id: str) -> None:
        self._broker = broker
        self._job_id = job_id

    @property
    def job_id(self) -> str:
        return self._job_id

    def status(self) -> JobStatus:
        return self._broker.status(self._job_id)

    def events(self) -> Iterator[Dict[str, Any]]:
        seen = 0
        while True:
            records = self._broker.events(self._job_id)
            for record in records[seen:]:
                yield record
            seen = len(records)
            if self.status().done:
                # One last drain: events written between the read
                # above and the terminal transition.
                for record in self._broker.events(self._job_id)[seen:]:
                    yield record
                return
            time.sleep(0.05)

    def result(self, timeout: Optional[float] = None) -> GridResult:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.status().done:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {self._job_id} not done within {timeout}s"
                )
            time.sleep(0.05)
        status = self.status()
        if status.state != COMPLETED:
            raise BrokerError(
                f"job {self._job_id} finished {status.state}:"
                f" {status.error or 'no result'}"
            )
        return self._broker.result(self._job_id)

    def cancel(self) -> JobStatus:
        return self._broker.cancel(self._job_id)
