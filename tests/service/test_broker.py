"""Broker tests: kill/resume, in-flight dedup, retry/backoff, leases."""

import json
import re
import threading

import pytest

from repro.obs.manifest import ManifestWriter
from repro.service.broker import BrokerError, SweepBroker
from repro.service.jobs import (
    CANCELLED,
    COMPLETED,
    FAILED,
    PENDING,
    RUNNING,
    JobStatus,
    JobStore,
)
from repro.sim.config import SystemConfig
from repro.sim.grid import GridSpec

CONFIG = SystemConfig(scale=1 / 256, n_windows=1)
GRID = GridSpec(
    trackers=("baseline", "hydra"), workloads=("leela", "gcc"), config=CONFIG
)


def make_broker(tmp_path, **kwargs):
    kwargs.setdefault("pool", "inline")
    return SweepBroker(
        state_dir=tmp_path / "state",
        cache_dir=tmp_path / "cache",
        **kwargs,
    )


def payload_bytes(grid_result) -> bytes:
    return json.dumps(grid_result.to_payload(), sort_keys=True).encode()


class TestLifecycle:
    def test_submit_and_step_to_completion(self, tmp_path):
        broker = make_broker(tmp_path)
        job_id = broker.submit(GRID, start=False)
        assert broker.status(job_id).state == PENDING
        broker.step(job_id)
        status = broker.status(job_id)
        assert status.state == COMPLETED
        assert status.completed_cells == status.total_cells == 4
        result = broker.result(job_id)
        assert sorted(result) == ["baseline", "hydra"]
        assert sorted(result["hydra"]) == ["gcc", "leela"]

    def test_submit_requires_config(self, tmp_path):
        broker = make_broker(tmp_path)
        with pytest.raises(ValueError):
            broker.submit(GridSpec(trackers=("hydra",), workloads=("leela",)))

    def test_result_before_done_raises(self, tmp_path):
        broker = make_broker(tmp_path)
        job_id = broker.submit(GRID, start=False)
        with pytest.raises(BrokerError):
            broker.result(job_id)

    def test_unknown_job_raises(self, tmp_path):
        broker = make_broker(tmp_path)
        with pytest.raises(BrokerError):
            broker.status("nope")

    def test_events_carry_job_id(self, tmp_path):
        broker = make_broker(tmp_path)
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id)
        events = broker.events(job_id)
        assert len(events) == 4
        assert all(e["job_id"] == job_id for e in events)
        assert all(e["kind"] == "cell" for e in events)

    def test_cancel_pending_job(self, tmp_path):
        broker = make_broker(tmp_path)
        job_id = broker.submit(GRID, start=False)
        status = broker.cancel(job_id)
        assert status.state == CANCELLED
        # Terminal: stepping does nothing further.
        broker.step(job_id)
        assert broker.status(job_id).state == CANCELLED

    def test_background_thread_completes(self, tmp_path):
        broker = make_broker(tmp_path, pool="thread", workers=2)
        job_id = broker.submit(GRID)
        result = broker.handle(job_id).result(timeout=120)
        assert sorted(result) == ["baseline", "hydra"]
        broker.shutdown()


class TestKillResume:
    def test_preempt_then_resume_zero_rerun(self, tmp_path):
        """The e2e acceptance path: kill mid-grid, resume, complete.

        Cells simulated before the 'kill' must not re-run (asserted
        via the cache's store counter), and the resumed job's
        GridResult must be byte-identical to an uninterrupted run.
        """
        broker = make_broker(tmp_path)
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id, max_cells=2)
        first_stores = broker.cache.stores
        assert broker.status(job_id).state == RUNNING
        assert broker.status(job_id).completed_cells == 2
        del broker  # the "kill": only disk state survives

        revived = make_broker(tmp_path)
        assert revived.resume(start=False) == [job_id]
        assert revived.status(job_id).completed_cells == 2
        revived.step(job_id)
        status = revived.status(job_id)
        assert status.state == COMPLETED
        assert status.completed_cells == 4
        # Every unique cell was simulated exactly once across both
        # broker lifetimes.
        assert first_stores + revived.cache.stores == 4
        # No duplicate manifest records either.
        assert len(revived.events(job_id)) == 4

        fresh = make_broker(tmp_path / "uninterrupted")
        ref_id = fresh.submit(GRID, start=False)
        fresh.step(ref_id)
        assert payload_bytes(revived.result(job_id)) == payload_bytes(
            fresh.result(ref_id)
        )

    def test_resume_ignores_terminal_jobs(self, tmp_path):
        broker = make_broker(tmp_path)
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id)
        assert broker.status(job_id).state == COMPLETED
        revived = make_broker(tmp_path)
        assert revived.resume(start=False) == []
        # But its status stays readable from disk.
        assert revived.status(job_id).state == COMPLETED

    def test_result_survives_restart(self, tmp_path):
        """A job completed in a previous broker life still serves its
        result (and a handle) from persisted spec + cache — no
        resume() needed."""
        broker = make_broker(tmp_path)
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id)
        expected = payload_bytes(broker.result(job_id))
        del broker

        revived = make_broker(tmp_path)
        assert payload_bytes(revived.result(job_id)) == expected
        assert revived.handle(job_id).status().state == COMPLETED


class TestDedup:
    def test_two_jobs_fill_each_key_once(self, tmp_path):
        """Same grid submitted twice concurrently: each unique cache
        key is written exactly once (the acceptance criterion)."""
        gate = threading.Event()
        keys_run = []
        lock = threading.Lock()

        from repro.service.worker import run_cell

        def gated_runner(config, tracker, workload, cache_dir, ttl, **kw):
            gate.wait(timeout=60)  # hold cells until both jobs queued
            with lock:
                keys_run.append((tracker, workload))
            return run_cell(config, tracker, workload, cache_dir, ttl, **kw)

        broker = make_broker(
            tmp_path, pool="thread", workers=4, cell_runner=gated_runner
        )
        a = broker.submit(GRID)
        b = broker.submit(GRID)
        gate.set()
        res_a = broker.handle(a).result(timeout=120)
        res_b = broker.handle(b).result(timeout=120)
        assert payload_bytes(res_a) == payload_bytes(res_b)
        # 4 unique cells; the second job shared in-flight tasks or hit
        # the cache — the cache was written exactly once per key.
        assert broker.cache.stores == 4
        status_b = broker.status(b)
        assert status_b.completed_cells == 4
        broker.shutdown()

    def test_second_submission_after_completion_is_all_hits(self, tmp_path):
        broker = make_broker(tmp_path)
        first = broker.submit(GRID, start=False)
        broker.step(first)
        assert broker.cache.stores == 4
        second = broker.submit(GRID, start=False)
        broker.step(second)
        status = broker.status(second)
        assert status.state == COMPLETED
        assert status.cache_hits == 4
        assert broker.cache.stores == 4  # nothing re-simulated


class TestRetry:
    def test_flaky_cell_retries_with_backoff(self, tmp_path):
        """First two attempts of one cell fail; backoff sleeps follow
        the exponential schedule; the job still completes."""
        from repro.service.worker import run_cell

        failures = {"n": 0}
        sleeps = []

        def flaky_runner(config, tracker, workload, cache_dir, ttl, **kw):
            if workload == "gcc" and tracker == "hydra" and failures["n"] < 2:
                failures["n"] += 1
                raise RuntimeError("worker lost")
            return run_cell(config, tracker, workload, cache_dir, ttl, **kw)

        broker = make_broker(
            tmp_path,
            cell_runner=flaky_runner,
            max_retries=2,
            backoff_s=0.5,
            sleep=sleeps.append,
        )
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id)
        status = broker.status(job_id)
        assert status.state == COMPLETED
        assert status.retries == 2
        assert sleeps == [0.5, 1.0]  # backoff_s * 2**(attempt-1)

    def test_exhausted_retries_fail_the_job(self, tmp_path):
        def doomed_runner(*args, **kwargs):
            raise RuntimeError("always broken")

        sleeps = []
        broker = make_broker(
            tmp_path,
            cell_runner=doomed_runner,
            max_retries=2,
            sleep=sleeps.append,
        )
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id)
        status = broker.status(job_id)
        assert status.state == FAILED
        assert "always broken" in status.error
        assert len(sleeps) == 2  # attempts 1..3, backoff between them

    def test_failure_only_after_cached_prefix(self, tmp_path):
        """A failed job keeps its completed cells in the cache; a
        retry submission reuses them."""

        def doomed_runner(*args, **kwargs):
            raise RuntimeError("broken")

        good = make_broker(tmp_path)
        first = good.submit(
            GridSpec(
                trackers=("baseline",),
                workloads=("leela", "gcc"),
                config=CONFIG,
            ),
            start=False,
        )
        good.step(first)
        stores = good.cache.stores

        bad = make_broker(tmp_path, cell_runner=doomed_runner, sleep=lambda s: None)
        job_id = bad.submit(GRID, start=False)
        bad.step(job_id)
        status = bad.status(job_id)
        assert status.state == FAILED
        # The baseline cells came from the cache before the failure.
        assert status.cache_hits == stores == 2


class TestClockInjection:
    def test_status_timestamps_use_injected_clock(self, tmp_path):
        now = {"t": 1000.0}
        broker = make_broker(tmp_path, clock=lambda: now["t"])
        job_id = broker.submit(GRID, start=False)
        assert broker.status(job_id).created_at == 1000.0
        now["t"] = 2000.0
        broker.step(job_id)
        assert broker.status(job_id).updated_at == 2000.0


def counters(status):
    return (status.completed_cells, status.cache_hits, status.retries)


def manifest_keys(broker, job_id):
    return [e["cache_key"] for e in broker.events(job_id)]


class TestBatchedRecords:
    """Cells are recorded in memory and flushed in batches."""

    def test_warm_job_writes_manifest_once(self, tmp_path, monkeypatch):
        broker = make_broker(tmp_path)
        broker.step(broker.submit(GRID, start=False))  # fill the cache
        appends, writes = [], []
        append, write_status = ManifestWriter.append, JobStore.write_status

        def counting_append(self, records):
            records = list(records)
            appends.append(len(records))
            return append(self, records)

        def counting_write(self, status):
            writes.append(status.state)
            return write_status(self, status)

        monkeypatch.setattr(ManifestWriter, "append", counting_append)
        monkeypatch.setattr(JobStore, "write_status", counting_write)
        job_id = broker.submit(GRID, start=False)
        writes.clear()  # count what step() does, not submit()
        broker.step(job_id)
        assert broker.status(job_id).cache_hits == 4
        assert appends == [4]
        assert 1 <= len(writes) <= 3
        assert writes[-1] == COMPLETED

    def test_live_status_advances_per_cell(self, tmp_path, monkeypatch):
        """In-memory progress moves every cell even though status.json
        is written only when a batch is flushed."""
        broker = make_broker(tmp_path)
        broker.step(broker.submit(GRID, start=False))
        job_id = broker.submit(GRID, start=False)
        seen = []
        append = ManifestWriter.append

        def spying_append(self, records):
            seen.append(broker.status(job_id).completed_cells)
            return append(self, records)

        monkeypatch.setattr(ManifestWriter, "append", spying_append)
        broker.step(job_id, max_cells=3)
        # One flush, when the budget ran out, with all three counted.
        assert seen == [3]
        on_disk = broker.store.load_status(job_id)
        assert counters(on_disk) == counters(broker.status(job_id))

    @pytest.mark.parametrize("fail_at", [1, 2, 3, 4])
    def test_failed_flush_then_resume(self, tmp_path, monkeypatch, fail_at):
        """A manifest append that raises at any flush point of a cold
        job leaves a resumable job: the resumed broker re-simulates
        nothing, records every cell once and serves the same bytes."""
        broker = make_broker(tmp_path, workers=1)
        job_id = broker.submit(GRID, start=False)
        calls = {"n": 0}
        append = ManifestWriter.append

        def faulty_append(self, records):
            calls["n"] += 1
            if calls["n"] == fail_at:
                raise OSError("disk full")
            return append(self, records)

        monkeypatch.setattr(ManifestWriter, "append", faulty_append)
        with pytest.raises(OSError, match="disk full"):
            broker.step(job_id)
        monkeypatch.setattr(ManifestWriter, "append", append)
        assert broker.store.load_status(job_id).state == RUNNING
        stores = broker.cache.stores
        del broker

        revived = make_broker(tmp_path, workers=1)
        assert revived.resume(start=False) == [job_id]
        revived.step(job_id)
        status = revived.status(job_id)
        assert status.state == COMPLETED
        assert status.completed_cells == 4
        # Every unique cell was simulated exactly once across both
        # broker lifetimes: nothing cached before the fault re-ran.
        assert stores + revived.cache.stores == 4
        keys = manifest_keys(revived, job_id)
        assert len(keys) == len(set(keys)) == 4

        fresh = make_broker(tmp_path / "uninterrupted")
        ref_id = fresh.submit(GRID, start=False)
        fresh.step(ref_id)
        assert payload_bytes(revived.result(job_id)) == payload_bytes(
            fresh.result(ref_id)
        )

    def test_failed_flush_fails_threaded_job(self, tmp_path, monkeypatch):
        """A job thread whose flush raises fails the job in memory (so
        waiters return) but leaves it resumable on disk."""

        def broken_append(self, records):
            raise OSError("disk full")

        monkeypatch.setattr(ManifestWriter, "append", broken_append)
        broker = make_broker(tmp_path, pool="thread", workers=2)
        job_id = broker.submit(GRID)
        with pytest.raises(BrokerError, match="could not record progress"):
            broker.handle(job_id).result(timeout=120)
        broker.shutdown()
        assert broker.store.load_status(job_id).state == RUNNING
        # Failed only in memory: the broker keeps the job and says so.
        assert job_id in broker._jobs
        assert broker.status(job_id).state == FAILED


class TestFinishedJobsLeaveMemory:
    def test_stepped_jobs_leave_memory_and_stay_servable(self, tmp_path):
        broker = make_broker(tmp_path)
        grid = GridSpec(trackers=("baseline",), workloads=("leela",), config=CONFIG)
        job_ids = []
        for _ in range(12):
            job_id = broker.submit(grid, start=False)
            broker.step(job_id)
            job_ids.append(job_id)
            assert broker._jobs == {}
        reference = payload_bytes(broker.result(job_ids[0]))
        for job_id in job_ids:
            assert broker.status(job_id).state == COMPLETED
            assert payload_bytes(broker.result(job_id)) == reference
            assert broker.handle(job_id).status().state == COMPLETED
            assert broker.step(job_id).state == COMPLETED
            assert broker.cancel(job_id).state == COMPLETED
            assert len(broker.events(job_id)) == 1
        assert set(job_ids) <= {status.job_id for status in broker.jobs()}
        with pytest.raises(BrokerError):
            broker.cancel("nope")
        with pytest.raises(BrokerError):
            broker.step("nope")

    def test_threaded_job_leaves_memory(self, tmp_path):
        broker = make_broker(tmp_path, pool="thread", workers=2)
        job_id = broker.submit(GRID)
        result = broker.handle(job_id).result(timeout=120)
        broker.shutdown()
        assert broker._jobs == {}
        assert payload_bytes(broker.result(job_id)) == payload_bytes(result)


def _prefilled_broker(directory, **kwargs):
    """A broker whose cache already holds GRID's baseline column."""
    broker = make_broker(directory, **kwargs)
    broker.step(
        broker.submit(
            GridSpec(
                trackers=("baseline",),
                workloads=("leela", "gcc"),
                config=CONFIG,
            ),
            start=False,
        )
    )
    return broker


class TestResumeCounters:
    def test_counters_rebuilt_from_manifest(self, tmp_path):
        """status.json may lag the manifest by a whole batch; resume
        recounts from the manifest, so the finished job's counters
        equal an uninterrupted run's."""
        reference = _prefilled_broker(tmp_path / "reference")
        ref_id = reference.submit(GRID, start=False)
        reference.step(ref_id)
        expected = counters(reference.status(ref_id))
        assert expected == (4, 2, 0)

        broker = _prefilled_broker(tmp_path)
        job_id = broker.submit(GRID, start=False)
        stale = broker.store.status_path(job_id).read_text()
        broker.step(job_id, max_cells=3)
        assert broker.status(job_id).completed_cells == 3
        # The kill lands after the manifest append, before status.json.
        broker.store.status_path(job_id).write_text(stale)
        del broker

        revived = make_broker(tmp_path)
        assert revived.resume(start=False) == [job_id]
        assert counters(revived.status(job_id))[:2] == (3, 2)
        revived.step(job_id)
        assert counters(revived.status(job_id)) == expected

    def test_step_budget_caps_dispatch(self, tmp_path):
        """``step(max_cells=k)`` simulates no cell beyond its budget."""
        broker = make_broker(tmp_path, workers=4)
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id, max_cells=1)
        assert broker.cache.stores == 1


class TestResumeUnreadableSpec:
    def test_removed_engine_job_fails_others_resume(self, tmp_path):
        """A persisted, interrupted job whose spec names the removed
        ``vector`` engine is marked FAILED; other jobs still resume."""
        broker = make_broker(tmp_path)
        good = broker.submit(GRID, start=False)
        del broker

        store = JobStore(tmp_path / "state")
        bad = "deadbeef-00000000"
        spec = GRID.to_dict()
        spec["config"]["engine"] = "vector"
        store.job_dir(bad).mkdir(parents=True)
        store.spec_path(bad).write_text(json.dumps(spec))
        store.write_status(
            JobStatus(
                job_id=bad,
                state=RUNNING,
                grid_key="deadbeef",
                total_cells=4,
                completed_cells=1,
            )
        )

        revived = make_broker(tmp_path)
        assert revived.resume(start=False) == [good]
        status = revived.status(bad)
        assert status.state == FAILED
        assert "engine 'vector' was removed" in status.error
        assert store.load_status(bad).state == FAILED
        with pytest.raises(BrokerError, match="failed, not completed"):
            revived.result(bad)
        revived.step(good)
        assert revived.status(good).state == COMPLETED
        # A second restart leaves the failed job alone.
        assert make_broker(tmp_path).resume(start=False) == []


class TestJobFiles:
    """``spec.json`` and ``status.json`` bytes, read back with ``open``."""

    def test_spec_and_status_are_sorted_json_dumps(self, tmp_path):
        store = JobStore(tmp_path / "state")
        status = JobStatus(
            job_id="job-1", state=PENDING, grid_key="abc", total_cells=4,
            created_at=1.5, updated_at=2.5,
        )
        store.create("job-1", GRID, status)
        with open(store.spec_path("job-1"), "rb") as handle:
            assert handle.read() == json.dumps(
                GRID.to_dict(), sort_keys=True
            ).encode()
        with open(store.status_path("job-1"), "rb") as handle:
            assert handle.read() == json.dumps(
                status.to_dict(), sort_keys=True
            ).encode()
        assert store.load_spec("job-1") == GRID
        assert store.load_status("job-1") == status

    def test_missing_job_files(self, tmp_path):
        store = JobStore(tmp_path / "state")
        assert store.load_status("missing") is None
        with pytest.raises(OSError):
            store.load_spec("missing")

    @pytest.mark.parametrize(
        "content", [b"", b'{"job_id": "to', b"[1, 2]", b'{"job_id": "x"}']
    )
    def test_bad_status_file_is_none(self, tmp_path, content):
        # Torn, not an object, or missing fields: the job is skipped,
        # and the other jobs are still listed.
        broker = make_broker(tmp_path)
        good = broker.submit(GRID, start=False)
        store = broker.store
        store.job_dir("bad").mkdir(parents=True)
        store.status_path("bad").write_bytes(content)
        assert store.load_status("bad") is None
        assert [s.job_id for s in broker.jobs()] == [good]


class TestSubmitHashesOnce:
    def test_grid_is_hashed_once_and_names_the_job(self, tmp_path, monkeypatch):
        calls = []
        grid_key = GridSpec.grid_key

        def counting(grid):
            calls.append(grid)
            return grid_key(grid)

        monkeypatch.setattr(GridSpec, "grid_key", counting)
        broker = make_broker(tmp_path)
        job_id = broker.submit(GRID, start=False)
        assert len(calls) == 1
        status = broker.status(job_id)
        assert status.grid_key == grid_key(GRID)
        assert re.fullmatch(r"[0-9a-f]{8}-[0-9a-f]{8}", job_id)
        assert job_id.startswith(status.grid_key[:8])
