"""The one grid walk, ``CellPool.deliver``, and the two callers of it.

``ExperimentRunner.run_grid`` and the sweep broker take their cells
from the same walk, so on one partly warm grid they must hand back the
same results, record the same cells in the same order, and fail the
same way on a cell that cannot be simulated.
"""

import json
import threading

import pytest

import repro.service.worker as worker
from repro.obs.manifest import read_records
from repro.service.broker import SweepBroker
from repro.service.jobs import COMPLETED, FAILED
from repro.service.worker import CellPool
from repro.sim.cache import ResultCache
from repro.sim.config import SystemConfig
from repro.sim.grid import GridSpec
from repro.sim.sweep import ExperimentRunner

CONFIG = SystemConfig(scale=1 / 256, n_windows=1)
GRID = GridSpec(
    trackers=("baseline", "hydra"), workloads=("leela", "gcc"), config=CONFIG
)
#: Cells already in the cache before the grid runs.
WARM = (("baseline", "leela"), ("hydra", "gcc"))


def _warm_cache(directory):
    runner = ExperimentRunner(CONFIG, cache_dir=directory)
    for tracker, workload in WARM:
        runner.run(tracker, workload)


def _run_grid(directory):
    """``run_grid`` over GRID; returns (result, manifest records)."""
    manifest = directory / "manifest.jsonl"
    runner = ExperimentRunner(
        CONFIG, cache_dir=directory / "cache", manifest_path=manifest
    )
    result = runner.run_grid(GRID, progress=False)
    records, _ = read_records(manifest)
    return result, [(r.spec, r.workload, r.from_cache) for r in records]


def _broker(directory, pool="inline", **kwargs):
    return SweepBroker(
        state_dir=directory / "state",
        cache_dir=directory / "cache",
        pool=pool,
        **kwargs,
    )


def _payload(grid_result):
    return json.dumps(grid_result.to_payload(), sort_keys=True)


class TestCrossPathParity:
    def test_partly_warm_grid(self, tmp_path):
        _warm_cache(tmp_path / "runner" / "cache")
        _warm_cache(tmp_path / "broker" / "cache")

        via_runner, runner_records = _run_grid(tmp_path / "runner")
        broker = _broker(tmp_path / "broker")
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id)
        assert broker.status(job_id).state == COMPLETED
        broker_records = [
            (e["spec"], e["workload"], e["from_cache"])
            for e in broker.events(job_id)
        ]

        assert _payload(via_runner) == _payload(broker.result(job_id))
        assert runner_records == broker_records
        assert [hit for _, _, hit in runner_records] == [
            True, False, False, True,
        ]

    def test_failing_cell(self, tmp_path, monkeypatch):
        _warm_cache(tmp_path / "runner" / "cache")
        _warm_cache(tmp_path / "broker" / "cache")
        calls = []
        real = worker.simulate_workload

        def broken_hydra_leela(config, tracker, workload, *args, **kwargs):
            if (tracker, workload) == ("hydra", "leela"):
                calls.append(workload)
                raise RuntimeError(f"cannot simulate {workload}")
            return real(config, tracker, workload, *args, **kwargs)

        monkeypatch.setattr(worker, "simulate_workload", broken_hydra_leela)
        with pytest.raises(RuntimeError, match="cannot simulate leela"):
            _run_grid(tmp_path / "runner")
        runner_attempts = len(calls)

        calls.clear()
        broker = _broker(tmp_path / "broker", sleep=lambda s: None)
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id)
        status = broker.status(job_id)

        assert runner_attempts == len(calls) == 1 + worker.DEFAULT_MAX_RETRIES
        assert status.state == FAILED
        assert "(hydra, leela)" in status.error
        assert f"after {runner_attempts} attempts" in status.error
        assert "cannot simulate leela" in status.error


class TestDeliver:
    def _walk(self, tmp_path, window):
        """The walk's submits, waits and yields, in the order they ran."""
        events = []
        pool = CellPool("inline", cache=ResultCache(tmp_path))
        submit = pool.submit

        def logged_submit(cell):
            events.append(("submit", cell.tracker, cell.workload))
            return submit(cell)

        pool.submit = logged_submit
        for outcome in pool.deliver(
            GRID.cells(),
            window=window,
            before_wait=lambda: events.append(("wait",)),
        ):
            cell = outcome.cell
            events.append(("yield", cell.tracker, cell.workload))
        return events

    def test_window_bounds_the_lookahead(self, tmp_path):
        names = [(c.tracker, c.workload) for c in GRID.cells()]
        submit = [("submit",) + name for name in names]
        done = [("yield",) + name for name in names]
        wait = ("wait",)
        assert self._walk(tmp_path, window=2) == [
            submit[0], submit[1], wait, done[0],
            submit[2], wait, done[1],
            submit[3], wait, done[2],
            wait, done[3],
        ]

    def test_no_window_dispatches_every_miss_first(self, tmp_path):
        names = [(c.tracker, c.workload) for c in GRID.cells()]
        events = self._walk(tmp_path, window=None)
        assert events[:4] == [("submit",) + name for name in names]
        assert [e for e in events if e[0] == "yield"] == [
            ("yield",) + name for name in names
        ]

    def test_hits_never_reach_the_executor(self, tmp_path):
        _warm_cache(tmp_path)
        pool = CellPool("inline", cache=ResultCache(tmp_path))

        def refuse(cell):
            raise AssertionError(f"{cell} was submitted")

        pool.submit = refuse
        warm = [c for c in GRID.cells() if (c.tracker, c.workload) in WARM]
        outcomes = list(pool.deliver(warm, window=1))
        assert [o.cell for o in outcomes] == warm
        assert all(o.from_cache and o.attempts == 0 for o in outcomes)
        assert pool._executor is None


class TestStoppedWalk:
    """A walk its caller stops early leaves nothing in ``_in_flight``."""

    def _broker(self, tmp_path, pool, workers, release):
        """A broker whose first grid cell fails at once; every other
        cell runs until ``release`` is set."""
        first = next(iter(GRID.cells()))

        def cell_runner(config, tracker, workload, *args, **kwargs):
            if (tracker, workload) == (first.tracker, first.workload):
                raise RuntimeError("first cell fails")
            release.wait(timeout=30)
            return {}

        return _broker(
            tmp_path,
            pool=pool,
            workers=workers,
            max_retries=0,
            cell_runner=cell_runner,
        )

    def test_thread_pool_forgets_cells_once_they_finish(self, tmp_path):
        release = threading.Event()
        broker = self._broker(tmp_path, "thread", 2, release)
        job_id = broker.submit(GRID, start=False)
        assert broker.step(job_id).state == FAILED
        # The other three cells were submitted ahead, never waited on.
        assert len(broker.cells._in_flight) == 3
        release.set()
        broker.cells.shutdown(wait=True)
        assert broker.cells._in_flight == {}

    def test_inline_pool_forgets_never_run_cells_at_once(self, tmp_path):
        broker = self._broker(tmp_path, "inline", 1, threading.Event())
        job_id = broker.submit(GRID, start=False)
        assert broker.step(job_id).state == FAILED
        assert broker.cells._in_flight == {}
