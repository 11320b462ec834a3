"""The one cell worker and its executor, as sweeps drive them.

``run_grid`` fills cells through the lease-guarded ``run_cell`` on a
``CellPool``: it must wait out another holder's lease instead of
simulating the cell a second time, retry a failed cell before
re-raising its own exception, and survive a pool worker killed
mid-grid. ``CellPool.map`` keeps submission order for key-less work.
"""

import os
import threading
import time
from pathlib import Path

import pytest

import repro.service.worker as worker
from repro.obs.manifest import read_records
from repro.service.worker import CellPool, cell_key, run_cell, worker_identity
from repro.sim.config import SystemConfig
from repro.sim.grid import GridSpec
from repro.sim.sweep import ExperimentRunner

CONFIG = SystemConfig(scale=1 / 256, n_windows=1)


def _counting_simulations(monkeypatch):
    """Count every simulation the worker runs in this process."""
    calls = []
    real = worker.simulate_workload

    def counted(config, tracker, workload, *args, **kwargs):
        calls.append((tracker, workload))
        return real(config, tracker, workload, *args, **kwargs)

    monkeypatch.setattr(worker, "simulate_workload", counted)
    return calls, counted


class TestRunGridLeases:
    def test_held_lease_is_waited_for_not_simulated(
        self, tmp_path, monkeypatch
    ):
        calls, simulate = _counting_simulations(monkeypatch)
        manifest = tmp_path / "manifest.jsonl"
        runner = ExperimentRunner(
            CONFIG, cache_dir=tmp_path / "cache", manifest_path=manifest
        )
        key = cell_key(CONFIG, "baseline", "leela")
        holder = worker_identity()  # this process: alive, never reclaimed
        assert runner.cache.lease(key, holder)

        # Signal once the grid's worker has found the lease held.
        refused = threading.Event()
        real_lease = runner.cache.lease

        def lease(lease_key, owner, **kwargs):
            won = real_lease(lease_key, owner, **kwargs)
            if lease_key == key and not won:
                refused.set()
            return won

        monkeypatch.setattr(runner.cache, "lease", lease)
        box = {}

        def sweep():
            box["grid"] = runner.run_grid(
                ["baseline"], ["leela", "gcc"], jobs=1, progress=False
            )

        thread = threading.Thread(target=sweep)
        thread.start()
        assert refused.wait(timeout=60)
        time.sleep(0.2)  # a few poll rounds while the lease is held
        assert ("baseline", "leela") not in calls
        assert thread.is_alive()

        # The holder finishes: store the entry, then release.
        runner.cache.store(
            key, simulate(CONFIG, "baseline", "leela").to_dict()
        )
        runner.cache.release(key, holder)
        thread.join(timeout=120)
        assert not thread.is_alive()

        assert calls.count(("baseline", "leela")) == 1
        records, _ = read_records(manifest)
        from_cache = {r.workload: r.from_cache for r in records}
        assert from_cache == {"leela": True, "gcc": False}
        assert list(box["grid"]["baseline"]) == ["leela", "gcc"]
        assert not list((tmp_path / "cache").glob("*.lease"))

    def test_failed_cell_is_retried_then_its_error_raised(
        self, tmp_path, monkeypatch
    ):
        calls = []

        def broken(config, tracker, workload, *args, **kwargs):
            calls.append(workload)
            raise RuntimeError(f"cannot simulate {workload}")

        monkeypatch.setattr(worker, "simulate_workload", broken)
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        with pytest.raises(RuntimeError, match="cannot simulate leela"):
            runner.run_grid(["baseline"], ["leela"], jobs=1, progress=False)
        assert calls == ["leela"] * (1 + worker.DEFAULT_MAX_RETRIES)
        assert not list(tmp_path.glob("*.lease"))


def _die_once(config, tracker, workload, cache_dir, ttl, **kwargs):
    """Kill the pool process on the first attempt of each cell."""
    marker = Path(cache_dir) / f"died-{tracker}-{workload}"
    if not marker.exists():
        marker.parent.mkdir(parents=True, exist_ok=True)
        marker.touch()
        os._exit(1)
    return run_cell(config, tracker, workload, cache_dir, ttl, **kwargs)


def _square(x):
    time.sleep(0.01 * (5 - x))  # later submissions finish first
    return x * x


class TestCellPool:
    def test_killed_worker_is_retried_on_a_fresh_pool(self, tmp_path):
        from repro.sim.cache import ResultCache

        grid = GridSpec.coerce(["baseline"], ["leela", "gcc"], config=CONFIG)
        pool = CellPool(
            "process",
            2,
            cache=ResultCache(tmp_path),
            sleep=lambda s: None,
            cell_runner=_die_once,
        )
        with pool:
            tasks = [pool.submit(cell) for cell in grid.cells()]
            for task in tasks:
                pool.wait(task)
        for task in tasks:
            assert task.error is None
            assert task.attempts >= 2
            direct = ExperimentRunner(CONFIG, use_disk_cache=False).run(
                task.cell.tracker, task.cell.workload
            )
            assert task.result.to_dict() == direct.to_dict()

    @pytest.mark.parametrize("kind", ["inline", "thread", "process"])
    def test_map_returns_submission_order(self, kind):
        with CellPool(kind, 3) as pool:
            assert pool.map(_square, [(x,) for x in range(5)]) == [
                0, 1, 4, 9, 16,
            ]

    def test_in_flight_cells_share_one_task(self, tmp_path):
        grid = GridSpec.coerce(["baseline"], ["leela"], config=CONFIG)
        cell = next(grid.cells())
        with CellPool("inline") as pool:
            first = pool.submit(cell)
            assert pool.submit(cell) is first
            pool.wait(first)
            assert pool.submit(cell) is not first

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown pool kind"):
            CellPool("fiber")
