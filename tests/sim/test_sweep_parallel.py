"""Tests for parallel sweeps: determinism, racing writers, knobs.

The paper's grids are embarrassingly parallel; these tests pin the
two guarantees the parallel mode makes — results identical to serial
execution, and a disk cache that survives concurrent writers — plus
the REPRO_JOBS/jobs resolution rules and the progress reporter.
"""

import io
import json
import multiprocessing
import os

import pytest

from repro.sim.config import (
    JOBS_ENV_VAR,
    SystemConfig,
    default_jobs,
    resolve_jobs,
)
from repro.sim.grid import GridSpec
from repro.sim.sweep import ExperimentRunner, SweepProgress, cell_key

CONFIG = SystemConfig(scale=1 / 256, n_windows=1)
TRACKERS = ["baseline", "ocpr"]
WORKLOADS = ["leela", "povray", "xz", "mcf"]


def _grid(trackers, workloads):
    return GridSpec(trackers=tuple(trackers), workloads=tuple(workloads))


def _grid_dicts(grid):
    return {
        tracker: {wl: result.to_dict() for wl, result in column.items()}
        for tracker, column in grid.items()
    }


class TestParallelMatchesSerial:
    def test_grid_identical_2x4(self, tmp_path):
        serial = ExperimentRunner(
            CONFIG, cache_dir=tmp_path / "serial", jobs=1
        ).run_grid(_grid(TRACKERS, WORKLOADS))
        parallel = ExperimentRunner(
            CONFIG, cache_dir=tmp_path / "parallel", jobs=4
        ).run_grid(_grid(TRACKERS, WORKLOADS))
        assert _grid_dicts(parallel) == _grid_dicts(serial)

    def test_parallel_fills_shared_cache_format(self, tmp_path):
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path, jobs=4)
        runner.run_grid(_grid(TRACKERS, WORKLOADS[:2]))
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == 4
        for path in files:
            json.loads(path.read_text())  # every entry is valid JSON
        # A fresh serial runner reuses every parallel-written entry.
        fresh = ExperimentRunner(CONFIG, cache_dir=tmp_path, jobs=1)
        fresh.run_grid(_grid(TRACKERS, WORKLOADS[:2]))
        assert sorted(tmp_path.glob("*.json")) == files

    def test_compare_parallel_matches_serial(self, tmp_path):
        serial = ExperimentRunner(
            CONFIG, cache_dir=tmp_path / "a", jobs=1
        ).compare("ocpr", WORKLOADS)
        parallel = ExperimentRunner(
            CONFIG, cache_dir=tmp_path / "b", jobs=3
        ).compare("ocpr", WORKLOADS)
        assert parallel == serial


def _racing_writer(cache_dir: str, done_path: str) -> None:
    """One contender: simulate the same cell into the shared cache."""
    runner = ExperimentRunner(CONFIG, cache_dir=cache_dir)
    result = runner.run("baseline", "leela")
    with open(done_path, "w") as fh:
        json.dump({"end_time_ns": result.end_time_ns}, fh)


class TestRacingWriters:
    def test_two_processes_share_one_cache_dir(self, tmp_path):
        """Two runners racing on the same key both finish; the cache
        entry stays parseable and matches the deterministic result."""
        cache_dir = tmp_path / "shared"
        ctx = multiprocessing.get_context()
        outs = [str(tmp_path / f"done{i}.json") for i in range(2)]
        procs = [
            ctx.Process(target=_racing_writer, args=(str(cache_dir), out))
            for out in outs
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert all(proc.exitcode == 0 for proc in procs)

        times = [json.load(open(out))["end_time_ns"] for out in outs]
        assert times[0] == times[1]  # deterministic simulation

        key = cell_key(CONFIG, "baseline", "leela")
        cached = json.loads((cache_dir / f"{key}.json").read_text())
        assert cached["end_time_ns"] == times[0]
        leftovers = [p for p in cache_dir.iterdir() if p.suffix != ".json"]
        assert leftovers == []


class TestCorruptCacheHandling:
    def test_truncated_entry_is_evicted_and_refilled(self, tmp_path):
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        result = runner.run("baseline", "leela")
        key = cell_key(CONFIG, "baseline", "leela")
        path = tmp_path / f"{key}.json"
        path.write_text(path.read_text()[:20])  # truncate mid-object

        fresh = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        refilled = fresh.run("baseline", "leela")
        assert refilled.to_dict() == result.to_dict()
        assert fresh.cache.evictions == 1
        json.loads(path.read_text())  # refilled entry is valid again

    def test_wrong_schema_entry_is_evicted(self, tmp_path):
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        key = cell_key(CONFIG, "baseline", "leela")
        tmp_path.mkdir(exist_ok=True)
        (tmp_path / f"{key}.json").write_text('{"not": "a RunResult"}')
        result = runner.run("baseline", "leela")
        assert result.end_time_ns > 0
        assert runner.cache.evictions == 1


class TestJobsResolution:
    def test_explicit_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs("5") == 5

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_default_is_serial_without_env(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert default_jobs() == 1
        assert resolve_jobs(None) == 1

    def test_env_sets_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "7")
        assert default_jobs() == 7
        assert resolve_jobs(None) == 7

    def test_runner_default_used_by_run_grid(self, tmp_path, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path, jobs=2)
        grid = runner.run_grid(_grid(["baseline"], WORKLOADS[:2]))
        assert set(grid["baseline"]) == set(WORKLOADS[:2])


class TestSweepProgress:
    def test_counts_and_throughput(self):
        report = SweepProgress(total=4, enabled=False)
        report.record(from_cache=True)
        report.record(from_cache=False)
        report.record(from_cache=False)
        assert report.done == 3
        assert report.cache_hits == 1
        assert report.simulations == 2
        assert report.sims_per_second() > 0

    def test_enabled_report_writes_status(self):
        stream = io.StringIO()
        report = SweepProgress(total=2, enabled=True, stream=stream)
        report.record(from_cache=True)
        report.record(from_cache=False)
        report.finish()
        out = stream.getvalue()
        assert "2/2 cells" in out
        assert "1 cache hits" in out
        assert "sims/s" in out

    def test_auto_disabled_on_non_tty(self):
        report = SweepProgress(total=10, stream=io.StringIO())
        assert report.enabled is False

    def test_grid_reports_through_stream(self, tmp_path):
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        runner.run_grid(_grid(["baseline"], WORKLOADS[:2]), progress=False)
