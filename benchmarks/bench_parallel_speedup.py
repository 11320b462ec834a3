"""Harness benchmark: parallel sweep speedup and determinism.

Not a paper figure — this measures the *reproduction's* sweep layer:
a 2-tracker x 8-workload grid run serially and with ``jobs=4``
(each into its own empty cache directory, so every cell simulates),
asserting the parallel results are identical to the serial ones and,
on a machine with >= 4 CPUs, at least 2x faster wall-clock.
"""

import os
import tempfile
import time

from _common import bench_config

from repro.sim.grid import GridSpec
from repro.sim.simulator import trace_for_workload
from repro.sim.sweep import ExperimentRunner

TRACKERS = ["baseline", "hydra"]
WORKLOADS = ["leela", "povray", "xz", "mcf", "gcc", "cactuBSSN", "nab", "lbm"]
JOBS = 4


def _timed_grid(config, jobs: int):
    grid_spec = GridSpec(trackers=tuple(TRACKERS), workloads=tuple(WORKLOADS))
    with tempfile.TemporaryDirectory() as cache_dir:
        runner = ExperimentRunner(config, cache_dir=cache_dir, jobs=jobs)
        start = time.perf_counter()
        grid = runner.run_grid(grid_spec, progress=False)
        return grid, time.perf_counter() - start


def test_parallel_speedup(benchmark):
    config = bench_config()
    # Pre-generate traces so both timings measure simulation, and so
    # forked workers inherit the warm memo.
    for name in WORKLOADS:
        trace_for_workload(config, name)

    def run():
        serial, serial_s = _timed_grid(config, jobs=1)
        parallel, parallel_s = _timed_grid(config, jobs=JOBS)
        return serial, serial_s, parallel, parallel_s

    serial, serial_s, parallel, parallel_s = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    for tracker in TRACKERS:
        for wl in WORKLOADS:
            assert (
                parallel[tracker][wl].to_dict()
                == serial[tracker][wl].to_dict()
            ), f"parallel result diverged for ({tracker}, {wl})"

    speedup = serial_s / parallel_s if parallel_s else float("inf")
    cpus = os.cpu_count() or 1
    print(
        f"\n=== parallel sweep speedup ({len(TRACKERS)}x{len(WORKLOADS)} "
        f"grid, jobs={JOBS}, {cpus} CPUs) ===\n"
        f"serial   {serial_s:8.2f} s\n"
        f"parallel {parallel_s:8.2f} s\n"
        f"speedup  {speedup:8.2f} x"
    )
    if cpus >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup with {JOBS} jobs on {cpus} CPUs, "
            f"got {speedup:.2f}x"
        )
