"""HTTP front-end tests: socket-free dispatch + one live round trip."""

import asyncio
import json
import threading

import pytest

from repro.service import ServiceClient, ServiceError, SweepBroker
from repro.service.http import SweepService, serve_async
from repro.sim.config import SystemConfig
from repro.sim.grid import GridSpec

CONFIG = SystemConfig(scale=1 / 256, n_windows=1)
GRID = GridSpec(
    trackers=("baseline",), workloads=("leela", "gcc"), config=CONFIG
)


@pytest.fixture
def broker(tmp_path):
    b = SweepBroker(
        state_dir=tmp_path / "state",
        cache_dir=tmp_path / "cache",
        pool="inline",
    )
    yield b
    b.shutdown(wait=False)


@pytest.fixture
def service(broker):
    return SweepService(broker)


def submit_body(grid=GRID) -> bytes:
    return json.dumps({"grid": grid.to_dict()}).encode()


class TestDispatch:
    """The socket-free routing surface (no asyncio involved)."""

    def test_healthz(self, service):
        assert service.dispatch("GET", "/healthz") == (200, {"ok": True})

    def test_submit_returns_job_id(self, service, broker):
        status, payload = service.dispatch("POST", "/jobs", submit_body())
        assert status == 201
        assert payload["total_cells"] == 2
        assert broker.status(payload["job_id"]).grid_key == payload["grid_key"]

    def test_submit_rejects_bad_json(self, service):
        status, payload = service.dispatch("POST", "/jobs", b"not json")
        assert status == 400
        assert "bad grid payload" in payload["error"]

    def test_submit_rejects_configless_grid(self, service):
        grid = GridSpec(trackers=("baseline",), workloads=("leela",))
        status, payload = service.dispatch(
            "POST", "/jobs", submit_body(grid)
        )
        assert status == 400
        assert "config" in payload["error"]

    @pytest.mark.parametrize("trh", [2, "500"])
    def test_submit_rejects_bad_config(self, service, broker, trh):
        """A config the system refuses is a 400 at submit time: no job
        exists, and nothing is written under the state directory."""
        grid = {**GRID.to_dict(), "config": {**CONFIG.to_dict(), "trh": trh}}
        body = json.dumps({"grid": grid}).encode()
        status, payload = service.dispatch("POST", "/jobs", body)
        assert status == 400
        assert "trh" in payload["error"]
        assert broker.jobs() == []
        jobs_dir = broker.store.jobs_dir
        assert not jobs_dir.exists() or not any(jobs_dir.iterdir())

    def test_submit_rejects_bad_tracker_parameter(self, service, broker):
        """A spec parameter the tracker's builder refuses is a 400 at
        submit time too, naming the spec; no job directory is written."""
        grid = {**GRID.to_dict(), "trackers": ["baseline", "hydra@gct_entries=1000"]}
        body = json.dumps({"grid": grid}).encode()
        status, payload = service.dispatch("POST", "/jobs", body)
        assert status == 400
        assert "hydra@gct_entries=1000" in payload["error"]
        assert "power of two" in payload["error"]
        assert broker.jobs() == []
        jobs_dir = broker.store.jobs_dir
        assert not jobs_dir.exists() or not any(jobs_dir.iterdir())

    def test_submit_rejects_out_of_bounds_size(self, service, broker):
        """A size outside its bounds is refused when the payload is
        parsed: a 400, not a dropped connection, and nothing built."""
        grid = {**GRID.to_dict(), "trackers": ["cra@cache_ways=0"]}
        body = json.dumps({"grid": grid}).encode()
        status, payload = service.dispatch("POST", "/jobs", body)
        assert status == 400
        assert "cache_ways" in payload["error"]
        assert broker.jobs() == []

    def test_submit_builds_each_parametric_spec_once(
        self, service, broker, monkeypatch
    ):
        """One submit builds a spec with parameters once (not per
        derived grid), and reloading the job's spec builds nothing."""
        from repro.sim import grid as grid_module

        built = []
        real = grid_module.build_tracker

        def counting(spec, config):
            built.append(spec)
            return real(spec, config)

        monkeypatch.setattr(grid_module, "build_tracker", counting)
        grid = GridSpec(
            trackers=("baseline", "hydra@rcc_kb=28"),
            workloads=("leela",),
            config=CONFIG,
        )
        status, payload = service.dispatch("POST", "/jobs", submit_body(grid))
        assert status == 201
        assert built == ["hydra@rcc_kb=28"]
        broker.store.load_spec(payload["job_id"])
        assert built == ["hydra@rcc_kb=28"]

    def test_status_and_list(self, service, broker):
        _, submitted = service.dispatch("POST", "/jobs", submit_body())
        job_id = submitted["job_id"]
        status, payload = service.dispatch("GET", f"/jobs/{job_id}")
        assert status == 200
        assert payload["job_id"] == job_id
        status, listing = service.dispatch("GET", "/jobs")
        assert status == 200
        assert [j["job_id"] for j in listing["jobs"]] == [job_id]

    def test_unknown_job_is_404(self, service):
        status, payload = service.dispatch("GET", "/jobs/nope")
        assert status == 404
        assert "unknown job" in payload["error"]

    def test_result_before_completion_is_409(self, service, broker):
        job_id = broker.submit(GRID, start=False)
        status, payload = service.dispatch(
            "GET", f"/jobs/{job_id}/result"
        )
        assert status == 409
        assert "not completed" in payload["error"]

    def test_result_after_completion(self, service, broker):
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id)
        status, payload = service.dispatch(
            "GET", f"/jobs/{job_id}/result"
        )
        assert status == 200
        assert sorted(payload["grid"]["baseline"]) == ["gcc", "leela"]

    def test_delete_cancels(self, service, broker):
        job_id = broker.submit(GRID, start=False)
        status, payload = service.dispatch("DELETE", f"/jobs/{job_id}")
        assert status == 200
        assert payload["state"] == "cancelled"

    def test_events_snapshot(self, service, broker):
        job_id = broker.submit(GRID, start=False)
        broker.step(job_id)
        status, payload = service.dispatch(
            "GET", f"/jobs/{job_id}/events"
        )
        assert status == 200
        assert len(payload["events"]) == 2

    def test_method_not_allowed(self, service):
        assert service.dispatch("PUT", "/jobs")[0] == 405
        assert service.dispatch("POST", "/healthz")[0] == 405

    def test_unrouted_path_is_404(self, service):
        assert service.dispatch("GET", "/nope/deeper")[0] == 404


class TestLiveServer:
    """One real asyncio server + http.client round trip."""

    @pytest.fixture
    def endpoint(self, tmp_path):
        broker = SweepBroker(
            state_dir=tmp_path / "state",
            cache_dir=tmp_path / "cache",
            pool="thread",
            workers=2,
        )
        loop = asyncio.new_event_loop()
        started = threading.Event()
        box = {}

        def run():
            async def main():
                server = await serve_async(
                    broker, host="127.0.0.1", port=0, event_poll_s=0.02
                )
                box["port"] = server.sockets[0].getsockname()[1]
                started.set()
                async with server:
                    await server.serve_forever()

            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(main())
            except asyncio.CancelledError:
                pass

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        yield ServiceClient("127.0.0.1", box["port"])
        loop.call_soon_threadsafe(
            lambda: [t.cancel() for t in asyncio.all_tasks(loop)]
        )
        broker.shutdown(wait=False)

    def test_submit_stream_result_over_http(self, endpoint):
        assert endpoint.healthy()
        handle = endpoint.submit(GRID)
        events = list(handle.events())  # blocks until terminal
        assert len(events) == 2
        assert {e["workload"] for e in events} == {"leela", "gcc"}
        assert all(e["job_id"] == handle.job_id for e in events)
        result = handle.result(timeout=60)
        assert sorted(result["baseline"]) == ["gcc", "leela"]
        # Listed and terminal.
        assert handle.job_id in [s.job_id for s in endpoint.jobs()]
        assert endpoint.status(handle.job_id).state == "completed"

    def test_http_result_matches_direct_run(self, endpoint, tmp_path):
        handle = endpoint.submit(GRID)
        via_http = handle.result(timeout=60)
        direct_broker = SweepBroker(
            state_dir=tmp_path / "direct-state",
            cache_dir=tmp_path / "direct-cache",
            pool="inline",
        )
        job_id = direct_broker.submit(GRID, start=False)
        direct_broker.step(job_id)
        direct = direct_broker.result(job_id)
        assert json.dumps(via_http.to_payload(), sort_keys=True) == (
            json.dumps(direct.to_payload(), sort_keys=True)
        )

    def test_unknown_job_raises_service_error(self, endpoint):
        with pytest.raises(ServiceError) as err:
            endpoint.status("nope")
        assert err.value.status == 404
