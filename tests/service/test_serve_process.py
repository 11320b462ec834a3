"""``hydra-sim serve`` as a real process: it stops cleanly on a signal.

A server on a process pool forks a worker for its first cold cell.
SIGTERM, or SIGINT, must stop the server within seconds and take that
worker with it, not leave it running with init as its parent. SIGINT
must work even when the server inherited it ignored, as a background
job of a non-interactive shell does.
"""

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.service.client import ServiceClient
from repro.sim.config import SystemConfig
from repro.sim.grid import GridSpec

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads /proc (Linux)"
)

SRC = str(Path(repro.__file__).resolve().parents[1])


def _listening_port(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    seen = b""
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + timeout
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
    raise AssertionError(f"server never listened: {seen!r}")


def _children(pid: int):
    kids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                status = (entry / "status").read_text()
            except OSError:
                continue
            if re.search(rf"^PPid:\s+{pid}$", status, re.M):
                kids.append(int(entry.name))
    return kids


def _running(pid: int) -> bool:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return not re.search(r"^State:\s+Z", status, re.M)


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@pytest.mark.parametrize(
    "signum, preexec",
    [(signal.SIGTERM, None), (signal.SIGINT, _ignore_sigint)],
    ids=["sigterm", "sigint-inherited-ignored"],
)
def test_signal_stops_server_and_its_pool_worker(tmp_path, signum, preexec):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--pool", "process", "--workers", "1",
            "--state-dir", str(tmp_path / "state"),
            "--cache-dir", str(tmp_path / "cache"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        preexec_fn=preexec,
    )
    workers = []
    try:
        port = _listening_port(proc)
        grid = GridSpec(
            trackers=("baseline",),
            workloads=("leela",),
            config=SystemConfig(scale=1 / 256, n_windows=1),
        )
        handle = ServiceClient("127.0.0.1", port).submit(grid)
        handle.result(timeout=120)
        workers = _children(proc.pid)
        assert workers, "the cold cell ran on no pool worker"

        proc.send_signal(signum)
        assert proc.wait(timeout=10) == 0
        assert b"shutting down" in proc.stdout.read()
        assert [pid for pid in workers if _running(pid)] == []
    finally:
        for pid in [proc.pid, *workers]:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
