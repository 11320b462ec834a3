"""The four benchmark workloads.

Every workload drives the program only through its public entry
points (``repro.api.run``/``compare``, ``ExperimentRunner.run_grid``,
``hydra-sim serve`` and ``ServiceClient``). A workload is driven as:

- ``prepare(directory)``: its own preparation, timed as part of
  ``setup_s``; ``discard()`` drops a preparation when set-up repeats;
- ``run_round(index)``: one timed round, returning per-operation
  latencies and the number of cells delivered;
- ``check_round(index, rnd)``: the output gate for that round, run
  outside the timed region; returns how many operations failed;
- ``finish()``: checks that need the whole run (cold service cells);
- ``ledger_payloads()``: the fixed set of simulated results whose
  counters and digest a speed-only change must leave identical.

The README next to this file says why each workload exists.
"""

from __future__ import annotations

import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro.api as api
from repro.service.broker import SweepBroker
from repro.service.client import ServiceClient
from repro.service.http import serve_async
from repro.sim.cache import ResultCache
from repro.sim.config import SystemConfig
from repro.sim.grid import GridSpec
from repro.sim.results import GridResult
from repro.sim.simulator import trace_for_workload
from repro.sim.sweep import ExperimentRunner, cell_key
from repro.workloads.characteristics import all_names

#: Never more workers, client threads or connections than this.
MAX_PARALLEL = 2

#: The eight trackers of the warm grid (``warm_resweep``, ``service_mixed``).
WARM_TRACKERS = (
    "baseline", "hydra", "graphene", "cra",
    "para", "twice", "dcbf", "mithril",
)


def parallelism() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(MAX_PARALLEL, cpus))


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True)


@dataclass
class Round:
    """What one timed round produced."""

    #: Seconds per operation, in completion order.
    ops: List[float] = field(default_factory=list)
    #: Cells delivered by the round.
    cells: int = 0
    #: Workload-specific outputs the gate inspects.
    outputs: List[Any] = field(default_factory=list)


class Workload:
    name = ""

    def __init__(self, seed: int, toy: bool = False, traced: bool = False) -> None:
        self.seed = seed
        self.toy = toy
        #: Traced runs keep everything in one process: the pool is
        #: serial and the server runs on a thread.
        self.traced = traced
        self.jobs = 1 if traced else parallelism()
        self.directory: Optional[Path] = None
        #: Set by the traced run so client threads join its spans.
        self.tracer: Any = None
        #: Host seconds per reference second, set before each round.
        self.slowness = 1.0
        #: CPUs kept busy by set-up and by a round, for calibration.
        self.setup_cpus = self.round_cpus = 1

    def prepare(self, directory: Path) -> None:
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    def discard(self) -> None:
        pass

    def run_round(self, index: int) -> Round:
        raise NotImplementedError

    def check_round(self, index: int, rnd: Round) -> int:
        raise NotImplementedError

    def finish(self) -> int:
        return 0

    def ledger_payloads(self) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def report(self) -> List[str]:
        """Informational lines for the human-readable output."""
        return []

    def peak_rss_kb(self) -> int:
        """Largest resident set of a process outside this one."""
        return 0

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# fig5_cold
# ----------------------------------------------------------------------


class Fig5Cold(Workload):
    name = "fig5_cold"

    #: The paper's Figure 5 Hydra slowdown (ALL 36), for comparison only.
    PAPER_SLOWDOWN_PCT = 0.73

    def __init__(self, seed: int, toy: bool = False, traced: bool = False) -> None:
        super().__init__(seed, toy, traced)
        self.scale = 1 / 1024 if toy else 1 / 512
        self.workloads = all_names()[:4] if toy else all_names()
        self.first_payloads: List[Dict[str, Any]] = []
        self.slowdowns: List[float] = []
        self.round_cpus = self.jobs

    def config(self, index: int) -> SystemConfig:
        return SystemConfig(scale=self.scale, trh=500, seed=self.seed + index)

    def cache_dir(self, index: int) -> Path:
        return self.directory / f"round-{index}"

    def run_round(self, index: int) -> Round:
        started = time.perf_counter()
        comparison = api.compare(
            "hydra",
            self.workloads,
            config=self.config(index),
            jobs=self.jobs,
            progress=False,
            cache_dir=self.cache_dir(index),
        )
        return Round(
            ops=[time.perf_counter() - started],
            cells=2 * len(comparison),
            outputs=[comparison],
        )

    def check_round(self, index: int, rnd: Round) -> int:
        """Compare one rotating cell byte for byte with ``api.run``."""
        comparison = rnd.outputs[0]
        config = self.config(index)
        cache = ResultCache(self.cache_dir(index))
        cells = [
            (tracker, workload)
            for tracker in ("baseline", "hydra")
            for workload in self.workloads
        ]
        tracker, workload = cells[index % len(cells)]
        stored = cache.load(cell_key(config, tracker, workload))
        direct = api.run(tracker, workload, config=config).to_dict()
        by_workload = {c.workload: c for c in comparison}
        ok = (
            len(comparison) == len(self.workloads)
            and stored is not None
            and canonical(stored) == canonical(direct)
        )
        if ok:
            field_name = "baseline_ns" if tracker == "baseline" else "tracked_ns"
            ok = getattr(by_workload[workload], field_name) == direct["end_time_ns"]
        if index == 0:
            self.first_payloads = [
                cache.load(cell_key(config, t, w)) or {} for t, w in cells
            ]
        self.slowdowns.append(comparison.slowdowns()["ALL(36)"])
        shutil.rmtree(self.cache_dir(index), ignore_errors=True)
        return 0 if ok else 1

    def ledger_payloads(self) -> List[Dict[str, Any]]:
        return self.first_payloads

    def report(self) -> List[str]:
        if not self.slowdowns or self.toy:
            return []
        return [
            f"fig5_cold: Hydra ALL(36) slowdown {self.slowdowns[0]:.3f}% at"
            f" seed {self.seed} (paper: {self.PAPER_SLOWDOWN_PCT}%;"
            " informational, the model is unvalidated against hardware)"
        ]


# ----------------------------------------------------------------------
# lowtrh_trackers
# ----------------------------------------------------------------------


class LowTrhTrackers(Workload):
    name = "lowtrh_trackers"

    TRACKERS = ("baseline", "hydra", "graphene", "cra", "hydra@engine=queued")

    #: Traces per workload. What a low-threshold cell costs depends on
    #: its trace (8 % between two seeds at scale 1/256), so a run
    #: averages over several smaller traces rather than one large one.
    TRACE_SEEDS = 3

    def __init__(self, seed: int, toy: bool = False, traced: bool = False) -> None:
        super().__init__(seed, toy, traced)
        n_seeds = 1 if toy else self.TRACE_SEEDS
        scale = 1 / 1024 if toy else 1 / 512
        self.configs = [
            SystemConfig(scale=scale, seed=seed * self.TRACE_SEEDS + k).with_trh(125)
            for k in range(n_seeds)
        ]
        self.workloads = ("GUPS",) if toy else ("parest", "cactuBSSN", "GUPS")
        self.cells = [
            (config, t, w)
            for config in self.configs
            for w in self.workloads
            for t in self.TRACKERS
        ]
        self.reference: List[Optional[Dict[str, Any]]] = []

    def prepare(self, directory: Path) -> None:
        super().prepare(directory)
        for config in self.configs:
            for workload in self.workloads:
                trace_for_workload(config, workload)

    def run_round(self, index: int) -> Round:
        """One op runs every tracker on the workloads' traces of one seed.

        The cells differ in cost by up to 6x, so the median of single
        cells would flip between trackers; ops of one seed's 15 cells
        are alike.
        """
        rnd = Round()
        per_op = len(self.cells) // len(self.configs)
        for first in range(0, len(self.cells), per_op):
            started = time.perf_counter()
            for config, tracker, workload in self.cells[first:first + per_op]:
                try:
                    result = api.run(tracker, workload, config=config)
                except Exception as exc:  # counted, and the round goes on
                    result = exc
                rnd.outputs.append(result)
                rnd.cells += 1
            rnd.ops.append(time.perf_counter() - started)
        return rnd

    def check_round(self, index: int, rnd: Round) -> int:
        """Invariants on the first round; every later round must repeat it.

        Returns the number of ops with at least one wrong cell.
        """
        payloads = [
            None if isinstance(r, Exception) else r.to_dict() for r in rnd.outputs
        ]
        if index == 0:
            self.reference = payloads
            wrong = []
            for (config, tracker, workload), payload in zip(self.cells, payloads):
                trace = trace_for_workload(config, workload)
                wrong.append(
                    payload is None
                    or payload["requests"] != len(trace)
                    or payload["activations"] <= 0
                    or (tracker == "baseline" and payload["mitigations"] != 0)
                )
        else:
            wrong = [
                payload is None or canonical(payload) != canonical(reference)
                for payload, reference in zip(payloads, self.reference)
            ]
        per_op = len(self.cells) // len(self.configs)
        return sum(any(wrong[i:i + per_op]) for i in range(0, len(wrong), per_op))

    def ledger_payloads(self) -> List[Dict[str, Any]]:
        return [p for p in self.reference if p is not None]


# ----------------------------------------------------------------------
# warm_resweep
# ----------------------------------------------------------------------


class WarmFill:
    """The pre-filled 8-tracker x 36-workload grid at scale 1/4096."""

    def __init__(self, seed: int, toy: bool, jobs: int) -> None:
        self.config = SystemConfig(scale=1 / 4096, seed=seed)
        trackers = WARM_TRACKERS[:2] if toy else WARM_TRACKERS
        workloads = tuple(all_names()[:4]) if toy else ()
        self.grid = GridSpec(trackers=trackers, workloads=workloads)
        self.jobs = jobs
        self.expected: Dict[str, Dict[str, Any]] = {}
        self.cache_dir: Optional[Path] = None

    def fill(self, cache_dir: Path) -> None:
        self.cache_dir = cache_dir
        runner = ExperimentRunner(self.config, cache_dir=cache_dir, jobs=self.jobs)
        self.expected = runner.run_grid(self.grid, progress=False).to_payload()

    def check_cell(self, index: int) -> bool:
        """One rotating fill cell must equal a direct ``api.run``."""
        cells = [(t, w) for t in self.expected for w in self.expected[t]]
        tracker, workload = cells[index % len(cells)]
        direct = api.run(tracker, workload, config=self.config).to_dict()
        return canonical(direct) == canonical(self.expected[tracker][workload])

    def payloads(self) -> List[Dict[str, Any]]:
        return [p for column in self.expected.values() for p in column.values()]


class WarmResweep(Workload):
    name = "warm_resweep"

    def __init__(self, seed: int, toy: bool = False, traced: bool = False) -> None:
        super().__init__(seed, toy, traced)
        self.warm = WarmFill(seed, toy, self.jobs)
        self.ops_per_round = 2 if toy else 8
        self.setup_cpus = self.jobs

    def prepare(self, directory: Path) -> None:
        super().prepare(directory)
        self.warm.fill(directory / "cache")

    def run_round(self, index: int) -> Round:
        rnd = Round()
        for _ in range(self.ops_per_round):
            started = time.perf_counter()
            try:
                runner = ExperimentRunner(
                    self.warm.config, cache_dir=self.warm.cache_dir, jobs=1
                )
                grid = runner.run_grid(self.warm.grid, progress=False)
                output: Any = (grid, runner.cache.stores, runner.cache.evictions)
                rnd.cells += self.warm.grid.n_cells()
            except Exception as exc:  # counted, and the round goes on
                output = exc
            rnd.ops.append(time.perf_counter() - started)
            rnd.outputs.append(output)
        return rnd

    def check_round(self, index: int, rnd: Round) -> int:
        """Every op must be served wholly from cache, equal to the fill."""
        failed = 0
        for op, output in enumerate(rnd.outputs):
            if isinstance(output, Exception):
                failed += 1
                continue
            grid, stores, evictions = output
            if (
                stores
                or evictions
                or grid.to_payload() != self.warm.expected
                or (op == 0 and not self.warm.check_cell(index))
            ):
                failed += 1
        return failed

    def ledger_payloads(self) -> List[Dict[str, Any]]:
        return self.warm.payloads()


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------


class _ServerThread:
    """``serve_async`` on a private event loop in a thread (traced runs)."""

    def __init__(self, broker: SweepBroker) -> None:
        import asyncio

        self.broker = broker
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            self.server = self.loop.run_until_complete(
                serve_async(broker, "127.0.0.1", 0)
            )
            ready.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, name="server", daemon=True)
        self.thread.start()
        if not ready.wait(30):
            raise RuntimeError("in-process server did not start")
        self.port = self.server.sockets[0].getsockname()[1]

    def stop(self) -> None:
        def close() -> None:
            self.server.close()
            self.loop.stop()

        self.loop.call_soon_threadsafe(close)
        self.thread.join(30)
        self.loop.run_until_complete(self.server.wait_closed())
        self.loop.close()
        self.broker.shutdown(wait=True)


class _ServerProcess:
    """``hydra-sim serve`` as a subprocess, ready at its listening line."""

    def __init__(self, state_dir: Path, cache_dir: Path, env: Dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--workers", "1",
                "--state-dir", str(state_dir),
                "--cache-dir", str(cache_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=str(state_dir),
        )
        self.port = self._await_listening(timeout=60)

    def _await_listening(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        seen = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                seen += chunk
                match = re.search(rb"listening on .*?(\d+)\)", seen)
                if match:
                    return int(match.group(1))
        self.stop()
        raise RuntimeError(f"server never listened: {seen.decode(errors='replace')}")

    def tree_peak_rss_kb(self) -> int:
        """VmHWM of the server and of its children (the pool worker)."""
        pids = [self.proc.pid] + _children(self.proc.pid)
        return max((_vm_hwm_kb(pid) for pid in pids), default=0)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            text = (entry / "status").read_text()
        except OSError:
            continue
        match = re.search(r"^PPid:\s+(\d+)", text, re.M)
        if match and int(match.group(1)) == pid:
            kids.append(int(entry.name))
    return kids


def _vm_hwm_kb(pid: int) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    match = re.search(r"^VmHWM:\s+(\d+)", text, re.M)
    return int(match.group(1)) if match else 0


@dataclass
class _Job:
    index: int
    grid: GridSpec
    cold: bool
    latency: float = 0.0
    result: Optional[GridResult] = None
    payload: Optional[Dict[str, Any]] = None
    status: Any = None
    error: Optional[str] = None


class ServiceMixed(Workload):
    name = "service_mixed"

    #: Client status-poll interval in reference seconds, independent of
    #: any library sleep. It is stretched by the host's slowness, so
    #: polls take the same share of the server's time on a fast host
    #: as on a slow one, and reference-scaled latencies stay comparable.
    POLL_S = 0.004

    def __init__(self, seed: int, toy: bool = False, traced: bool = False) -> None:
        super().__init__(seed, toy, traced)
        self.warm = WarmFill(seed, toy, self.jobs)
        self.jobs_per_round = 4 if toy else 8
        self.setup_cpus = self.jobs
        self.round_cpus = 1 if traced else MAX_PARALLEL
        self.cold_scale = 1 / 1024
        self.server: Any = None
        self.client: Optional[ServiceClient] = None
        self.done: List[_Job] = []
        self.server_peak_kb = 0

    # -- set-up ------------------------------------------------------------

    def prepare(self, directory: Path) -> None:
        super().prepare(directory)
        cache = directory / "cache"
        self.warm.fill(cache)
        state = directory / "state"
        state.mkdir(parents=True, exist_ok=True)
        if self.traced:
            broker = SweepBroker(
                state_dir=state,
                cache_dir=cache,
                pool="inline",
                workers=1,
                cell_runner=_call_run_cell,
            )
            self.server = _ServerThread(broker)
        else:
            self.server = _ServerProcess(state, cache, dict(os.environ))
        self.client = ServiceClient("127.0.0.1", self.server.port, timeout=120)

    def discard(self) -> None:
        self.close()

    def close(self) -> None:
        if self.server is not None:
            if isinstance(self.server, _ServerProcess):
                self.server_peak_kb = max(
                    self.server_peak_kb, self.server.tree_peak_rss_kb()
                )
            self.server.stop()
            self.server = None

    # -- jobs --------------------------------------------------------------

    def job(self, index: int) -> _Job:
        """Job ``index``: every fourth is cold, the rest warm."""
        workloads = list(self.warm.grid.resolved_workloads())
        if index % 4 == 3:
            cold = index // 4
            names = [workloads[(4 * cold + i) % len(workloads)] for i in range(4)]
            if self.toy:
                names = names[:2]
            config = SystemConfig(scale=self.cold_scale, seed=self.seed + 1 + index)
            grid = GridSpec(trackers=("hydra",), workloads=tuple(names), config=config)
            return _Job(index, grid, cold=True)
        trackers = self.warm.grid.trackers
        warm_index = index - (index + 1) // 4
        pair = warm_index % (len(trackers) // 2)
        grid = GridSpec(
            trackers=tuple(trackers[2 * pair: 2 * pair + 2]),
            workloads=self.warm.grid.workloads,
            config=self.warm.config,
        )
        return _Job(index, grid, cold=False)

    def _drive(self, job: _Job) -> None:
        client = self.client
        started = time.perf_counter()
        try:
            handle = client.submit(job.grid)
            while True:
                status = client.status(handle.job_id)
                if status.done:
                    break
                self._poll_sleep()
            job.status = status
            if status.state == "completed":
                job.result = client.result(handle.job_id)
            else:
                job.error = f"job ended {status.state}: {status.error}"
        except Exception as exc:  # counted, and the loop goes on
            job.error = repr(exc)
        job.latency = time.perf_counter() - started

    def _poll_sleep(self) -> None:
        interval = self.POLL_S * self.slowness
        if self.tracer is None:
            time.sleep(interval)
            return
        with self.tracer.span("client.poll_sleep"):
            time.sleep(interval)

    def run_round(self, index: int) -> Round:
        first = index * self.jobs_per_round
        jobs = [self.job(k) for k in range(first, first + self.jobs_per_round)]
        # Each client sends the same mix, three warm jobs to one cold
        # one. The second client sends its share in reverse, so the two
        # clients' cold jobs do not queue for the single server worker
        # at once.
        share = len(jobs) // MAX_PARALLEL
        schedules = [
            jobs[c * share:(c + 1) * share][:: -1 if c % 2 else 1]
            for c in range(MAX_PARALLEL)
        ]
        finished: List[_Job] = []
        tracer = self.tracer
        parent = tracer.current() if tracer is not None else -1

        def client_loop(schedule: List[_Job]) -> None:
            if tracer is not None:
                tracer.adopt(parent)
            for job in schedule:
                self._drive(job)
                finished.append(job)

        threads = [
            threading.Thread(target=client_loop, args=(schedule,), name=f"client-{c}")
            for c, schedule in enumerate(schedules)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        finished.sort(key=lambda j: j.index)
        return Round(
            ops=[j.latency for j in finished],
            cells=sum(j.grid.n_cells() for j in finished if j.error is None),
            outputs=finished,
        )

    def check_round(self, index: int, rnd: Round) -> int:
        """Warm jobs must equal the fill; cold ones are checked at the end."""
        failed = 0
        for job in rnd.outputs:
            self.done.append(job)
            if job.error is None:
                job.payload = job.result.to_payload()
            if job.error is not None:
                failed += 1
            elif not job.cold:
                expected = {t: self.warm.expected[t] for t in job.grid.trackers}
                if job.payload != expected:
                    failed += 1
        return failed

    def finish(self) -> int:
        """Re-simulate every cold cell in-process and compare."""
        failed = 0
        for job in self.done:
            if job.cold and job.error is None and not self._cold_job_correct(job):
                failed += 1
        return failed

    @staticmethod
    def _cold_job_correct(job: _Job) -> bool:
        for tracker in job.grid.trackers:
            for workload in job.grid.workloads:
                direct = api.run(tracker, workload, config=job.grid.config)
                served = (job.payload or {}).get(tracker, {}).get(workload)
                if served is None or canonical(served) != canonical(direct.to_dict()):
                    return False
        return True

    def ledger_payloads(self) -> List[Dict[str, Any]]:
        payloads = self.warm.payloads()
        for job in self.done:
            if job.cold and job.index < self.jobs_per_round and job.payload:
                payloads.extend(p for col in job.payload.values() for p in col.values())
        return payloads

    def report(self) -> List[str]:
        latencies = sorted(j.latency for j in self.done if j.error is None)
        if not latencies:
            return []
        cold = sum(j.cold for j in self.done)
        return [
            f"service_mixed: {len(latencies)} jobs ({cold} cold),"
            f" job p50 {_quantile(latencies, 0.5) * 1e3:.2f} ms,"
            f" p90 {_quantile(latencies, 0.9) * 1e3:.2f} ms"
            f" ({len(latencies) - int(0.9 * len(latencies))} samples above p90)"
        ]

    def peak_rss_kb(self) -> int:
        if isinstance(self.server, _ServerProcess):
            self.server_peak_kb = max(
                self.server_peak_kb, self.server.tree_peak_rss_kb()
            )
        return self.server_peak_kb


def _call_run_cell(*args: Any, **kwargs: Any) -> Tuple[Dict[str, Any], bool, float]:
    """The worker entry, looked up at call time so tracing can wrap it."""
    import repro.service.worker as worker

    return worker.run_cell(*args, **kwargs)


def _quantile(sorted_values: List[float], q: float) -> float:
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


WORKLOADS = {
    cls.name: cls for cls in (Fig5Cold, LowTrhTrackers, WarmResweep, ServiceMixed)
}

__all__ = ["WORKLOADS", "Round", "Workload"]
