"""The one cell worker and the one executor every cell fan-out uses.

:func:`run_cell` is the disposable unit of work: it is handed a fully
self-describing cell — a picklable
(:class:`~repro.sim.config.SystemConfig`, tracker spec, workload name)
triple plus the shared cache directory — and leaves exactly one
content-addressed entry in the :class:`~repro.sim.cache.ResultCache`.
``ExperimentRunner.run``, ``ExperimentRunner.run_grid`` and the sweep
broker all fill cells through it; a worker that crashes loses nothing
but its own wall time.

The lease protocol (DESIGN.md §15) keeps racing workers from
duplicating simulations: whoever atomically creates ``<key>.lease``
simulates and stores; everyone else polls the cache until the entry
lands. A lease whose holder died is reclaimed — at once when the
holder was a process on this host, after its TTL otherwise — so a
dead worker delays a cell, never wedges it. The protocol is an
optimization: if it ever double-grants, both winners compute the same
deterministic payload and the atomic store keeps the cache consistent.

:class:`CellPool` is the executor those cells run on, for sweeps, the
broker, the arena's oracle battery and the fuzzer alike: an inline,
thread or process pool with in-flight dedup by cache key, per-cell
retry with exponential backoff, and a process pool rebuilt when a
killed worker breaks it. :meth:`CellPool.deliver` is the one grid
walk: ``run_grid`` and the broker both take their cells from it, in
grid order, cache hits straight from the cache. :meth:`CellPool.map`
runs key-less work (oracle and fuzz cells) on the same executor.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from collections import deque
from concurrent.futures import BrokenExecutor, Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.obs.manifest import ManifestRecord, make_record
from repro.sim.cache import DEFAULT_LEASE_TTL_S, ResultCache
from repro.sim.config import SystemConfig
from repro.sim.grid import GridCell, cell_key
from repro.sim.results import RunResult
from repro.trackers.registry import canonical_spec

#: How often a worker that lost the lease re-polls the cache for the
#: winner's entry.
DEFAULT_POLL_S = 0.05
#: Default cap on re-attempts of one cell after worker failures.
DEFAULT_MAX_RETRIES = 2
#: Base of the exponential backoff between attempts (seconds).
DEFAULT_BACKOFF_S = 0.5

CellRunner = Callable[..., Any]


def validated_entry(
    cache: ResultCache, key: str
) -> Optional[Tuple[Dict[str, Any], RunResult]]:
    """Load ``(payload, parsed RunResult)`` for a key, else evict.

    The parse is the validation, so callers take the result from here
    instead of parsing the payload a second time.
    """
    payload = cache.load(key)
    if payload is None:
        return None
    try:
        result = RunResult.from_dict(payload)
    except (TypeError, KeyError):
        cache._evict(cache.path_for(key))
        return None
    return payload, result


@dataclass(eq=False)
class CellOutcome:
    """One delivered cell: its result, or the error of its last attempt.

    A cache hit has ``attempts == 0``; ``wall_s`` is what the lookup or
    the fill cost.
    """

    cell: GridCell
    result: Optional[RunResult] = None
    from_cache: bool = False
    wall_s: float = 0.0
    attempts: int = 0
    error: Optional[BaseException] = None


def cell_record(outcome: CellOutcome, job_id: str = "") -> ManifestRecord:
    """The manifest record of one delivered cell (sweeps and the
    broker both build theirs here)."""
    cell, result = outcome.cell, outcome.result
    return make_record(
        cache_key=cell.key,
        spec=canonical_spec(cell.tracker),
        workload=cell.workload,
        engine=result.engine,
        from_cache=outcome.from_cache,
        wall_time_s=outcome.wall_s,
        requests=result.requests,
        end_time_ns=result.end_time_ns,
        job_id=job_id,
    )


def simulate_workload(
    config: SystemConfig, tracker: str, workload: str
) -> RunResult:
    """:func:`repro.sim.simulator.simulate_workload`, whose module (and
    its numpy trace stack) loads at the first cell that misses the
    cache: a walk that only hits never imports the simulator."""
    from repro.sim import simulator

    return simulator.simulate_workload(config, tracker, workload)


def worker_identity() -> str:
    """A lease-owner string unique to this worker invocation."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


def run_cell(
    config: SystemConfig,
    tracker: str,
    workload: str,
    cache_dir: Optional[str],
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_s: float = DEFAULT_POLL_S,
    cache: Optional[ResultCache] = None,
) -> Tuple[Dict[str, Any], bool, float]:
    """Produce one cell's payload through the shared cache.

    Returns ``(payload, from_cache, wall_s)``: the
    :class:`RunResult` as a plain dict (cheap to pickle back), whether
    it came from the cache, and the wall-clock seconds it cost. The
    fill is lease-guarded, so concurrent workers (of this process,
    another sweep or broker, or another machine sharing the cache
    directory) fill each unique key once.

    In-process callers pass their owner's ``cache`` instance so its
    ``stores`` / ``evictions`` / ``leases_reclaimed`` counters observe
    worker activity; process pools pass only ``cache_dir``
    (picklable) and each worker builds its own view.
    """
    started = time.perf_counter()
    if cache is None:
        cache = ResultCache(Path(cache_dir))
    key = cell_key(config, tracker, workload)
    owner = worker_identity()
    while True:
        entry = validated_entry(cache, key)
        if entry is not None:
            return entry[0], True, time.perf_counter() - started
        if cache.lease(key, owner, ttl_s=lease_ttl_s):
            try:
                result = simulate_workload(config, tracker, workload)
                payload = result.to_dict()
                cache.store(key, payload)
                return payload, False, time.perf_counter() - started
            finally:
                cache.release(key, owner)
        # Someone else holds the lease: wait for their store to land
        # (or for the lease to go stale so the loop reclaims it).
        time.sleep(poll_s)


class _InlineExecutor:
    """Executor that runs each submission in the caller.

    A call runs when its result is first asked for, so an inline pool
    fills cells in collection order — one at a time, with progress
    reported as it goes — behind the same dispatch/collect code as
    the concurrent pools.
    """

    def submit(self, fn, *args, **kwargs) -> "Future[Any]":
        return _DeferredCall(fn, args, kwargs)

    def shutdown(self, wait: bool = True) -> None:  # noqa: ARG002
        pass


class _DeferredCall(Future):
    """A future whose call runs in the first ``result()`` caller."""

    def __init__(self, fn, args, kwargs) -> None:
        super().__init__()
        self._call: Any = (fn, args, kwargs)

    def result(self, timeout: Optional[float] = None) -> Any:
        if self._call is not None:
            fn, args, kwargs = self._call
            self._call = None
            try:
                self.set_result(fn(*args, **kwargs))
            except BaseException as exc:  # surfaced by result() below
                self.set_exception(exc)
        return super().result(timeout)


class CellTask(CellOutcome):
    """One in-flight cache fill, shared by every caller that wants it.

    After :meth:`CellPool.wait` returns, either ``result`` (with
    ``from_cache`` and ``wall_s``) or ``error`` — the last attempt's
    own exception — is set.
    """

    def __init__(self, cell: GridCell) -> None:
        super().__init__(cell)
        self.future: Optional["Future[Any]"] = None
        #: The executor ``future`` came from (a broken one is rebuilt).
        self.executor: Any = None
        self.done = threading.Event()
        #: Serializes the retry loop: the first waiter drives
        #: resubmission, later waiters just block on ``done``.
        self._drive = threading.Lock()


class CellPool:
    """The executor every cell fan-out runs on.

    ``kind`` is ``"process"`` (one OS process per worker),
    ``"thread"`` (shared memory) or ``"inline"`` (no concurrency; the
    submission runs in the caller). Cells go through ``cell_runner``
    (default :func:`run_cell`) against ``cache``; inline and thread
    pools hand workers that very instance, so its counters see their
    activity. The executor is built on first use and rebuilt after a
    worker death breaks a process pool.
    """

    def __init__(
        self,
        kind: str = "process",
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
        sleep: Callable[[float], None] = time.sleep,
        cell_runner: Optional[CellRunner] = None,
    ) -> None:
        if kind not in ("process", "thread", "inline"):
            raise ValueError(f"unknown pool kind {kind!r}")
        self.kind = kind
        self.workers = workers
        self.cache = cache
        self.lease_ttl_s = lease_ttl_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._sleep = sleep
        self._cell_runner = cell_runner if cell_runner is not None else run_cell
        self._in_flight: Dict[str, CellTask] = {}
        self._lock = threading.Lock()
        # The executor gets its own lock: ``submit`` builds tasks while
        # holding ``_lock``, and ``_get_executor`` must not re-take it.
        self._exec_lock = threading.Lock()
        self._executor: Any = None

    @classmethod
    def sized(cls, jobs: int, cells: int, **kwargs: Any) -> "CellPool":
        """A process pool of ``min(jobs, cells)`` workers when that
        parallelizes anything, else an inline pool. The executor
        starts at the first submission, so a walk that only hits the
        cache starts none."""
        if jobs > 1 and cells > 1:
            return cls("process", min(jobs, cells), **kwargs)
        return cls("inline", 1, **kwargs)

    def __enter__(self) -> "CellPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- cache cells ---------------------------------------------------

    def submit(self, cell: GridCell) -> CellTask:
        """The shared task filling this cell's cache key.

        One key maps to at most one live task, however many callers
        want it — the in-process half of in-flight dedup (leases
        extend it across processes).
        """
        if self.cache is None:
            raise ValueError("cache cells need a pool built with cache=")
        with self._lock:
            task = self._in_flight.get(cell.key)
            if task is None:
                task = CellTask(cell)
                self._submit_cell(task)
                self._in_flight[cell.key] = task
            return task

    def wait(self, task: CellTask) -> CellTask:
        """Block until the task is done, driving retries if first.

        A failed attempt is resubmitted after an exponential backoff
        (``backoff_s * 2**(attempt-1)``, through the injectable
        ``sleep``) until ``max_retries`` re-attempts are spent; then
        ``task.error`` holds the last attempt's exception.
        """
        if not task.done.is_set():
            with task._drive:
                while not task.done.is_set():
                    try:
                        task.attempts += 1
                        payload, from_cache, wall_s = task.future.result()
                        task.result = RunResult.from_dict(payload)
                        task.from_cache = from_cache
                        task.wall_s = wall_s
                        task.error = None
                        task.done.set()
                    except Exception as exc:  # an interrupt is not retried
                        if isinstance(exc, BrokenExecutor):
                            self._discard_executor(task.executor)
                        if task.attempts > self.max_retries:
                            task.error = exc
                            task.done.set()
                            break
                        self._sleep(
                            self.backoff_s * (2 ** (task.attempts - 1))
                        )
                        self._submit_cell(task)
        self._forget(task)
        return task

    def _forget(self, task: CellTask) -> None:
        """Drop ``task`` from the in-flight map, if it is still there."""
        with self._lock:
            if self._in_flight.get(task.cell.key) is task:
                del self._in_flight[task.cell.key]

    def deliver(
        self,
        cells: Iterable[GridCell],
        window: Optional[int] = None,
        before_wait: Optional[Callable[[], None]] = None,
    ) -> Iterator[CellOutcome]:
        """Each cell's :class:`CellOutcome`, in the order given.

        A cell is looked up as it enters the walk's lookahead: a hit
        is read straight from the cache, a miss is submitted. The
        lookahead runs ``window`` cells ahead of the cell being
        yielded, or over every cell at once when ``window`` is
        ``None``, so no worker idles behind a slow head cell. Before
        blocking on a miss still running, the walk calls
        ``before_wait``, then :meth:`wait` (retries included). A cell
        whose retries ran out is yielded with its ``error`` set.

        A walk its caller stops early (a failed or cancelled job)
        leaves its lookahead unwaited: each such task leaves the
        in-flight map once its fill finishes, and an inline pool's
        never-run call leaves it at once.
        """
        cells = iter(cells)
        ahead: deque[CellOutcome] = deque()
        try:
            while True:
                while window is None or len(ahead) < window:
                    cell = next(cells, None)
                    if cell is None:
                        break
                    started = time.perf_counter()
                    entry = validated_entry(self.cache, cell.key)
                    if entry is None:
                        ahead.append(self.submit(cell))
                    else:
                        wall_s = time.perf_counter() - started
                        ahead.append(CellOutcome(cell, entry[1], True, wall_s))
                if not ahead:
                    return
                head = ahead[0]
                if isinstance(head, CellTask) and not head.done.is_set():
                    if before_wait is not None:
                        before_wait()
                    self.wait(head)
                yield ahead.popleft()
        finally:
            for task in ahead:
                if isinstance(task, CellTask) and not task.done.is_set():
                    self._abandon(task)

    def _abandon(self, task: CellTask) -> None:
        """Forget a task no caller of this walk will wait on."""
        future = task.future
        if isinstance(future, _DeferredCall) and future._call is not None:
            self._forget(task)
        else:
            future.add_done_callback(lambda _, task=task: self._forget(task))

    def _submit_cell(self, task: CellTask) -> None:
        cell = task.cell
        kwargs = {} if self.kind == "process" else {"cache": self.cache}
        task.executor = self._get_executor()
        task.future = task.executor.submit(
            self._cell_runner,
            cell.config,
            cell.tracker,
            cell.workload,
            str(self.cache.directory),
            self.lease_ttl_s,
            **kwargs,
        )

    # -- key-less work -------------------------------------------------

    def map(
        self, fn: Callable[..., Any], argsets: Iterable[Sequence[Any]]
    ) -> List[Any]:
        """``[fn(*args) for args in argsets]`` on this pool's executor.

        Results come back in submission order. For work without a
        cache key (oracle and fuzz cells): no leases, no dedup, no
        retries — a failure raises here.
        """
        executor = self._get_executor()
        futures = [executor.submit(fn, *args) for args in argsets]
        return [future.result() for future in futures]

    # -- executor plumbing ---------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        with self._exec_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def _get_executor(self) -> Any:
        with self._exec_lock:
            if self._executor is None:
                self._executor = self._make_executor()
            return self._executor

    def _make_executor(self) -> Any:
        if self.kind == "inline":
            return _InlineExecutor()
        if self.kind == "thread":
            return ThreadPoolExecutor(max_workers=self.workers)
        from concurrent.futures import ProcessPoolExecutor

        # Import the simulator before the workers fork, so each one
        # inherits it instead of importing it for its first cell.
        import repro.sim.simulator  # noqa: F401

        return ProcessPoolExecutor(max_workers=self.workers)

    def _discard_executor(self, broken: Any) -> None:
        """Drop a broken pool so the next submit builds a fresh one.

        Only ``broken`` itself is dropped: tasks failing off the same
        dead pool must not tear down the replacement a retry built.
        """
        with self._exec_lock:
            if self._executor is not broken:
                return
            self._executor = None
        broken.shutdown(wait=False)
