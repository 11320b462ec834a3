"""Job records of the sweep service: states, status, persistence.

A *job* is one submitted :class:`~repro.sim.grid.GridSpec`. Its
durable footprint is a directory under the broker's state dir::

    <state_dir>/jobs/<job_id>/
        spec.json       # the GridSpec, canonical JSON (written once)
        status.json     # JobStatus snapshot (atomic replace per flush)
        manifest.jsonl  # one ManifestRecord per produced cell (events)

The *result cache* — not this directory — is the system of record for
cell payloads: a broker that dies mid-job restarts, re-reads
``spec.json``, and re-walks the grid; every cell already in the cache
is served from it (zero re-simulation), so the job reaches the exact
same :class:`~repro.sim.results.GridResult` bytes an uninterrupted run
would have produced.

State machine (DESIGN.md §15)::

    PENDING ──start──▶ RUNNING ──all cells done──▶ COMPLETED
       │                  │ ├──cancel──▶ CANCELLED
       └────cancel────────┘ └──cell exhausts retries──▶ FAILED

Terminal states (COMPLETED / FAILED / CANCELLED) never transition
again; a resumed broker re-enters RUNNING only from PENDING/RUNNING.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.durable import atomic_write_text, read_bytes
from repro.sim.grid import GridSpec
from repro.sim.results import GridResult

# -- states ------------------------------------------------------------

PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can still make progress from (what ``resume`` picks up).
ACTIVE_STATES = (PENDING, RUNNING)
#: States a job never leaves.
TERMINAL_STATES = (COMPLETED, FAILED, CANCELLED)


@dataclass
class JobStatus:
    """One job's externally visible progress snapshot."""

    job_id: str
    state: str
    grid_key: str
    total_cells: int
    completed_cells: int = 0
    cache_hits: int = 0
    retries: int = 0
    error: str = ""
    created_at: float = 0.0
    updated_at: float = 0.0

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        # Field order, as ``asdict`` gives it, without its deep copy.
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "JobStatus":
        known = {f.name for f in fields(JobStatus)}
        return JobStatus(**{k: v for k, v in data.items() if k in known})


class JobStore:
    """Directory-backed persistence of job specs and statuses."""

    def __init__(self, state_dir: Path) -> None:
        self.jobs_dir = Path(state_dir) / "jobs"

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def spec_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "spec.json"

    def status_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "status.json"

    def manifest_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "manifest.jsonl"

    def create(self, job_id: str, spec: GridSpec, status: JobStatus) -> None:
        atomic_write_text(
            self.spec_path(job_id), json.dumps(spec.to_dict(), sort_keys=True)
        )
        self.write_status(status)

    def write_status(self, status: JobStatus) -> None:
        atomic_write_text(
            self.status_path(status.job_id),
            json.dumps(status.to_dict(), sort_keys=True),
        )

    def load_spec(self, job_id: str) -> GridSpec:
        path = self.spec_path(job_id)
        data = read_bytes(path)
        if data is None:
            raise OSError(f"cannot read {path}")
        return GridSpec.from_dict(json.loads(data.decode()))

    def load_status(self, job_id: str) -> Optional[JobStatus]:
        """The persisted status, or None when it is absent, torn, or
        not a status (so one bad file cannot fail ``GET /jobs``)."""
        data = read_bytes(self.status_path(job_id))
        if data is None:
            return None
        try:
            return JobStatus.from_dict(json.loads(data.decode()))
        except (ValueError, AttributeError, TypeError):
            return None

    def list_jobs(self) -> List[str]:
        """Every persisted job id, oldest first (by status mtime)."""
        if not self.jobs_dir.is_dir():
            return []
        entries = []
        for child in self.jobs_dir.iterdir():
            status = child / "status.json"
            if status.is_file():
                entries.append((status.stat().st_mtime, child.name))
        return [name for _, name in sorted(entries)]


# -- the handle every front-end hands back -----------------------------


class JobHandle:
    """Uniform view of a submitted sweep job, local or remote.

    ``repro.api.sweep`` returns one of these whether the grid runs in
    an in-process broker or on a remote ``hydra-sim serve`` instance:
    ``status()`` / ``events()`` / ``result()`` / ``cancel()`` are the
    whole surface.
    """

    @property
    def job_id(self) -> str:  # pragma: no cover - trivial override
        raise NotImplementedError

    def status(self) -> JobStatus:
        raise NotImplementedError

    def events(self) -> Iterator[Dict[str, Any]]:
        """Per-cell manifest records, yielded as they land.

        The broker writes them in batches (DESIGN.md §15), so events
        arrive in bursts; a fully cached job's all land at completion.
        The iterator finishes once the job reaches a terminal state
        and every already-written event has been delivered.
        """
        raise NotImplementedError

    def result(self, timeout: Optional[float] = None) -> GridResult:
        """Block until the job completes, then return its grid."""
        raise NotImplementedError

    def cancel(self) -> JobStatus:
        raise NotImplementedError

    def done(self) -> bool:
        return self.status().done
