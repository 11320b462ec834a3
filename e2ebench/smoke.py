#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at toy size.

    python3 e2ebench/smoke.py

Checks, in order:

1. every workload runs with ``--toy`` and prints a last line with
   exactly the keys and end-to-end metric names BENCHMARK.json names;
2. the traced run prints exactly the per-layer metric names;
3. planted faults are counted as failed operations without stopping
   the run: a corrupt cache entry (the warm op must re-simulate) and a
   well-formed but wrong payload (the op returns a wrong result);
4. in a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures: List[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "e2ebench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy",
        ],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=180,
    )


def last_result(proc: subprocess.CompletedProcess) -> Dict[str, Any]:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def check_result(label: str, result: Dict[str, Any], names: List[Dict[str, str]]) -> None:
    check(set(result) == RESULT_KEYS, f"{label}: result keys")
    metrics = result.get("metrics", {})
    check(
        sorted(metrics) == sorted(m["name"] for m in names),
        f"{label}: metric names match BENCHMARK.json",
    )
    units = {m["name"]: m["unit"] for m in names}
    check(
        all(
            isinstance(v.get("value"), (int, float)) and v.get("unit") == units.get(k)
            for k, v in metrics.items()
        ),
        f"{label}: every metric has a numeric value and its unit",
    )
    check(
        result.get("correct") is True and result.get("failed") == 0
        and result.get("attempted", 0) >= 1,
        f"{label}: correct with no failed operations",
    )


def schema_checks() -> None:
    for workload in SPEC["workloads"]:
        proc = run_benchmark(ROOT, workload["name"], trace=0)
        check(proc.returncode == 0, f"{workload['name']}: exit code 0")
        check_result(workload["name"], last_result(proc), SPEC["end_to_end"])
        e2e = last_result(proc).get("metrics", {})
        check(
            all(v["value"] > 0 for v in e2e.values()),
            f"{workload['name']}: end-to-end metrics are non-zero",
        )
    proc = run_benchmark(ROOT, SPEC["workloads"][0]["name"], trace=1)
    check(proc.returncode == 0, "traced run: exit code 0")
    check_result("traced run", last_result(proc), SPEC["per_layer"])


def planted_fault_checks(tmp: Path) -> None:
    """Faults planted between warm rounds must land in ``failed``."""
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        os.environ.pop(var)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from repro.sim.cache import ResultCache
    from repro.sim.sweep import cell_key
    from workloads import WarmResweep

    workload = WarmResweep(seed=3, toy=True)
    workload.prepare(tmp / "warm")
    warm = workload.warm
    cache = ResultCache(warm.cache_dir)
    tracker = warm.grid.trackers[1]
    name = warm.grid.resolved_workloads()[0]
    key = cell_key(warm.config, tracker, name)
    good = cache.load(key)

    def failed_ops(index: int) -> int:
        return workload.check_round(index, workload.run_round(index))

    check(failed_ops(0) == 0, "planted: a clean warm round has no failed op")

    cache.path_for(key).write_text("{not json")
    check(failed_ops(1) == 1, "planted: a corrupt cache entry fails the op that meets it")

    wrong = dict(good, end_time_ns=good["end_time_ns"] + 1.0)
    cache.store(key, wrong)
    check(
        failed_ops(2) == workload.ops_per_round,
        "planted: a mismatching payload fails every op that serves it",
    )

    cache.store(key, good)
    check(failed_ops(3) == 0, "planted: the run goes on once the entry is repaired")
    workload.close()


def bare_directory_check(tmp: Path) -> None:
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    proc = run_benchmark(bare, SPEC["workloads"][0]["name"], trace=0)
    check(
        proc.returncode != 0 and "metrics" not in proc.stdout,
        "without the program's source the benchmark fails and prints no result",
    )


def main() -> int:
    tmp = ROOT / ".e2ebench" / f"smoke-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        schema_checks()
        planted_fault_checks(tmp)
        bare_directory_check(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
