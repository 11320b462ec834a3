"""The blessed programmatic surface of the reproduction.

Every front-end — the ``hydra-sim`` CLI, the sweep service's HTTP
endpoints, ``repro.analysis.experiments`` figure scripts — routes
through these few typed entry points; everything else in the package
is implementation detail that may move between releases:

- :func:`run` — one (tracker, workload) simulation → ``RunResult``.
- :func:`sweep` — a :class:`~repro.sim.grid.GridSpec` of simulations →
  a :class:`~repro.service.jobs.JobHandle`, running either in-process
  (a private broker) or on a remote ``hydra-sim serve`` instance.
- :func:`compare` — tracked column vs the no-tracking baseline →
  ``ComparisonResult``.
- :func:`list_trackers` / :func:`list_attacks` — the registry names a
  spec string may start with.

A single run is named by a tracker spec string plus a
:class:`~repro.sim.config.SystemConfig`; the value objects of the
surface (``GridSpec``, ``RunResult``, ``GridResult``) re-export from
here so callers can ``from repro.api import ...`` alone.

Importing this module loads those value objects and the tracker
registry only. The simulator (and numpy), the sweep runner and the
service's broker or client load at the first call that needs them
(DESIGN.md §16).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from repro.sim.config import SystemConfig
from repro.sim.grid import GridSpec
from repro.sim.results import ComparisonResult, GridResult, RunResult
from repro.service.jobs import JobHandle

__all__ = [
    "ComparisonResult",
    "GridResult",
    "GridSpec",
    "JobHandle",
    "RunResult",
    "SystemConfig",
    "compare",
    "list_attacks",
    "list_trackers",
    "run",
    "sweep",
]


def run(
    spec: str = "hydra",
    workload: str = "GUPS",
    config: Optional[SystemConfig] = None,
    observe: Optional[bool] = None,
) -> RunResult:
    """Simulate one (tracker, workload) cell.

    ``spec`` is a tracker spec string (``"hydra@trh=1000"``). The
    result is byte-identical to calling :func:`repro.sim.simulate` on
    the workload's trace — this is a naming/typing facade, not a
    second code path.
    """
    from repro.sim.simulator import simulate_workload

    return simulate_workload(
        config if config is not None else SystemConfig(),
        spec,
        workload,
        observe=observe,
    )


def sweep(
    grid: GridSpec,
    *,
    service: Optional[str] = None,
    pool: str = "process",
    workers: Optional[int] = None,
    state_dir: Optional[Path] = None,
    cache_dir: Optional[Path] = None,
) -> JobHandle:
    """Submit a :class:`GridSpec` of simulations; returns a
    :class:`JobHandle`.

    The grid runs under its own config, or under plain
    ``SystemConfig()`` when it carries none.

    With ``service="host:port"`` the grid is submitted over HTTP to a
    running ``hydra-sim serve`` instance and the returned handle is
    remote. Otherwise a private :class:`~repro.service.broker
    .SweepBroker` runs it in-process (``pool``/``workers`` as in the
    broker; the handle keeps the broker alive). Either way the
    handle's surface is identical: ``status()`` / ``events()`` /
    ``result()`` / ``cancel()``.
    """
    if not isinstance(grid, GridSpec):
        raise TypeError(f"sweep takes a GridSpec, not {type(grid).__name__}")
    if grid.config is None:
        grid = grid.with_config(SystemConfig())

    if service is not None:
        from repro.service.client import ServiceClient

        host, _, port = service.rpartition(":")
        client = ServiceClient(host or "127.0.0.1", int(port))
        return client.submit(grid)

    from repro.service.broker import SweepBroker

    broker = SweepBroker(
        state_dir=state_dir,
        cache_dir=cache_dir,
        pool=pool,
        workers=workers,
    )
    return broker.handle(broker.submit(grid))


def compare(
    tracker: str = "hydra",
    workloads: Optional[Sequence[str]] = None,
    config: Optional[SystemConfig] = None,
    baseline: str = "baseline",
    jobs: Optional[int] = None,
    progress: Optional[bool] = None,
    cache_dir: Optional[Path] = None,
    manifest_path: Optional[Path] = None,
) -> ComparisonResult:
    """Tracked column vs the no-tracking baseline, per workload.

    ``tracker`` is a spec string; ``workloads`` defaults to all 36.
    Both columns run through the shared result cache.
    """
    from repro.sim.sweep import ExperimentRunner

    runner = ExperimentRunner(
        config if config is not None else SystemConfig(),
        cache_dir=cache_dir,
        jobs=jobs,
        manifest_path=manifest_path,
    )
    return runner.compare(
        tracker,
        workloads,
        baseline_name=baseline,
        progress=progress,
    )


def list_trackers() -> Sequence[str]:
    """Registry names a tracker spec string may start with."""
    from repro.trackers.registry import available_trackers

    return available_trackers()


def list_attacks() -> Sequence[str]:
    """Registry names an attack spec string may start with."""
    from repro.attacks import available_attacks

    return available_attacks()
