#!/usr/bin/env python3
"""End-to-end benchmark of the Hydra reproduction.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload fig5_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` times the named workload and prints every end-to-end
metric, with host times rescaled to a reference host speed (see
:class:`ReferenceTimer`); ``--trace 1`` runs all four workloads in one
process with layer spans recorded and prints the per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report and the simulated-statistics ledger.

The program is imported from ``src/`` of the checkout; everything the
run writes lives under ``.e2ebench/`` there and the per-run part is
removed at exit. README.md next to this file describes the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".e2ebench"

#: Inherited settings that would change what the program does.
REPRO_ENV = ("REPRO_JOBS", "REPRO_OBS", "REPRO_MANIFEST", "REPRO_CACHE_DIR", "REPRO_SCALE")

WORKLOAD_NAMES = ("fig5_cold", "lowtrh_trackers", "warm_resweep", "service_mixed")

#: A timed run sets up at least ``MIN_SETUPS`` times and, while the
#: set-ups are short, until ``SETUP_SECONDS`` of set-up time (at most
#: ``MAX_SETUPS``); ``setup_s`` is their median.
MIN_SETUPS = 3
MAX_SETUPS = 9
SETUP_SECONDS = 4.0
#: A timed run measures at least this many rounds, however long they take.
MIN_ROUNDS = 3

#: CPU seconds :func:`calibration_s` takes on the reference host.
REFERENCE_CALIBRATION_S = 0.025


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy",
        action="store_true",
        help="toy-sized inputs (the smoke test); metrics are not comparable",
    )
    return parser.parse_args(argv)


def fresh_import() -> None:
    """``import repro.api`` in a new interpreter."""
    subprocess.run(
        [sys.executable, "-c", "import repro.api"],
        check=True,
        env=os.environ.copy(),
        cwd=str(ROOT),
    )


def calibration_s(_: Any = None) -> float:
    """CPU time of a fixed pure-Python loop: the host's current speed."""
    started = time.process_time()
    table = {}
    for i in range(90000):
        table[str(i & 4095)] = i
    sum(table.values())
    return time.process_time() - started


class HostSpeed:
    """Times :func:`calibration_s` on as many CPUs as a workload keeps busy.

    A CPU runs slower while its neighbour is busy too, so an interval in
    which a workload keeps both CPUs busy (pool workers, the server and
    its worker) is calibrated with the loop running on both at once, in
    idle helper processes started on first use. One busy CPU is
    calibrated in this process.
    """

    def __init__(self) -> None:
        self._pool: Any = None

    def loop_s(self, cpus: int) -> float:
        if cpus <= 1:
            return calibration_s()
        if self._pool is None:
            self._pool = multiprocessing.get_context("fork").Pool(cpus)
        return statistics.fmean(self._pool.map(calibration_s, range(cpus), chunksize=1))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()


def cpu_ticks() -> Tuple[int, int]:
    """Busy and stolen clock ticks, summed over every CPU of the host.

    Read from the first line of ``/proc/stat``; ``(0, 0)`` where it
    cannot be read, which turns the steal correction off.
    """
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:9]]
        user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq, steal


class ReferenceTimer:
    """Times an interval as it would run on an unshared reference host.

    On a shared virtual machine two things move every timing by tens of
    percent, over seconds to minutes. The hypervisor takes CPUs away
    (steal): the interval's wall time is multiplied by the share of the
    CPU time the guest asked for that it was given, busy / (busy +
    stolen) ticks from ``/proc/stat``. And the CPUs themselves run
    faster or slower, by up to a factor of two: :class:`HostSpeed`
    times the calibration loop in CPU time, which excludes steal, just
    before and just after the interval, and the time is further
    multiplied by ``REFERENCE_CALIBRATION_S`` over the mean loop time.
    """

    def __init__(self, host: HostSpeed, cpus: int) -> None:
        self.host = host
        self.cpus = cpus

    def __enter__(self) -> "ReferenceTimer":
        self._before = self.host.loop_s(self.cpus)
        #: Host seconds per reference second, as measured at the start.
        self.slowness = self._before / REFERENCE_CALIBRATION_S
        self._ticks = cpu_ticks()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.wall = time.perf_counter() - self._started
        busy, stolen = (b - a for a, b in zip(self._ticks, cpu_ticks()))
        given = busy / (busy + stolen) if busy + stolen > 0 else 1.0
        loop_s = (self._before + self.host.loop_s(self.cpus)) / 2
        #: Reference seconds per wall second of the interval.
        self.speed = given * REFERENCE_CALIBRATION_S / loop_s

    @property
    def seconds(self) -> float:
        return self.wall * self.speed


def own_peak_rss_kb() -> int:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def timed_run(args: argparse.Namespace, tmp: Path, host: HostSpeed) -> Dict[str, Any]:
    from layers import simulated_counters
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, toy=args.toy)
    setups: List[float] = []
    walls: List[float] = []
    raw_walls: List[float] = []
    ops: List[float] = []
    cells = attempted = failed = 0
    try:
        while len(setups) < MIN_SETUPS or (
            sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS
        ):
            repeat = len(setups)
            if repeat:
                workload.discard()
            with ReferenceTimer(host, workload.setup_cpus) as timer:
                fresh_import()
                workload.prepare(tmp / f"setup-{repeat}")
            setups.append(timer.seconds)

        index = 0
        while sum(walls) < args.seconds or index < MIN_ROUNDS:
            with ReferenceTimer(host, workload.round_cpus) as timer:
                workload.slowness = timer.slowness
                rnd = workload.run_round(index)
            walls.append(timer.seconds)
            raw_walls.append(timer.wall)
            ops.extend(op * timer.speed for op in rnd.ops)
            cells += rnd.cells
            attempted += len(rnd.ops)
            failed += workload.check_round(index, rnd)
            index += 1
        failed += workload.finish()
        peak_kb = max(own_peak_rss_kb(), workload.peak_rss_kb())
        ledger = simulated_counters(workload.ledger_payloads())
        report = workload.report()
    finally:
        workload.close()

    failed = min(failed, attempted)
    for line in report:
        print(line)
    print(
        f"{args.workload}: {len(walls)} rounds, {attempted} ops,"
        f" error_rate {failed / attempted:.4f}, setups {[round(s, 3) for s in setups]}"
    )
    print(
        f"{args.workload}: round p50 {statistics.median(raw_walls):.4f} s wall,"
        f" {statistics.median(walls):.4f} s at reference host speed"
    )
    print("round_s " + json.dumps([round(w, 5) for w in walls]))
    print("round_wall_s " + json.dumps([round(w, 5) for w in raw_walls]))
    print("ledger " + json.dumps({args.workload: ledger}, sort_keys=True))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "round_p50_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "cells_per_s": (cells / sum(walls), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(args: argparse.Namespace, tmp: Path, host: HostSpeed) -> Dict[str, Any]:
    """Every workload in this process: a warm-up, an untraced and a traced round."""
    from layers import CacheCounters, install, per_layer_metrics
    from tracing import Tracer
    from workloads import WORKLOADS

    untraced_round, traced_round = 1, 2
    tracer = Tracer()
    counters = CacheCounters()
    counters.install()
    traced_s = untraced_s = 0.0
    attempted = failed = 0
    statuses: List[Any] = []
    evictions = reclaimed = 0
    try:
        for name in WORKLOAD_NAMES:
            workload = WORKLOADS[name](args.seed, toy=args.toy, traced=True)
            try:
                workload.prepare(tmp / name)
                for index in range(traced_round + 1):
                    traced = index == traced_round
                    if traced:
                        before = counters.totals()
                        install(tracer)
                        workload.tracer = tracer
                    try:
                        with ReferenceTimer(host, workload.round_cpus) as timer, (
                            tracer.span("round") if traced else contextlib.nullcontext()
                        ):
                            workload.slowness = timer.slowness
                            rnd = workload.run_round(index)
                    finally:
                        if traced:
                            tracer.restore()
                            workload.tracer = None
                    if traced:
                        traced_s += timer.seconds
                        after = counters.totals()
                        evictions += after[0] - before[0]
                        reclaimed += after[1] - before[1]
                        if name == "service_mixed":
                            statuses.extend(job.status for job in rnd.outputs)
                    elif index == untraced_round:
                        untraced_s += timer.seconds
                    attempted += len(rnd.ops)
                    failed += workload.check_round(index, rnd)
                failed += workload.finish()
            finally:
                workload.close()
    finally:
        counters.restore()
    tracer.write(OUT / "spans.jsonl")
    metrics = per_layer_metrics(
        tracer, statuses, (evictions, reclaimed), traced_s, untraced_s
    )
    failed = min(failed, attempted)
    print(f"traced run: {len(tracer.spans)} spans written to {OUT / 'spans.jsonl'}")
    units = {
        entry["name"]: entry["unit"]
        for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program source at {SRC}", file=sys.stderr)
        return 2
    for var in REPRO_ENV:
        os.environ.pop(var, None)
    tmp = OUT / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = str(SRC)
    tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(SRC))
    host = HostSpeed()
    try:
        run = traced_run if args.trace else timed_run
        result = run(args, tmp, host)
    finally:
        host.close()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
