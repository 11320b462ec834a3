"""End-to-end simulation runner: trace -> engine -> DRAM.

``simulate`` wires one workload trace through a memory-controller
*engine* carrying the requested tracker, and packages the outcome as a
:class:`~repro.sim.results.RunResult`. Both engines — the fast
in-order controller and the queued FR-FCFS controller — run through
this single code path (``build_controller`` + ``run_trace``), so every
consumer (sweeps, the result cache, benchmarks, the CLI) is
engine-agnostic: set ``SystemConfig.engine`` or put ``engine=queued``
in a tracker spec and nothing else changes.

What to run is described by exactly two things: a spec string and a
:class:`~repro.sim.config.SystemConfig`. The spec's ``engine=`` and
``stream_chunk=`` parameters beat the config's fields of the same
name; everything else about the system comes from the config.

Tracker construction is spec-driven (``make_tracker`` delegates to the
declarative registry in :mod:`repro.trackers.registry`), so sweeps and
the benchmark harness express configurations as plain strings: bare
names (``baseline``, ``hydra``, ``graphene``, ``cra``, ...) or
parameterized specs (``hydra@trh=1000,rcc_kb=28``,
``hydra@engine=queued``). Run ``repro list-trackers`` — or call
:func:`repro.trackers.registry.available_trackers` — for the full
catalogue and each tracker's parameters.

``simulate_workload`` is the self-contained (and picklable-argument)
entry point used by parallel sweeps: given only a
:class:`~repro.sim.config.SystemConfig` and two strings, it
regenerates the trace locally (memoized per process, so a pool worker
pays for each workload's trace once) and runs the simulation —
because specs are strings, parallel sweeps get parameter *and engine*
sweeps for free.

Traces are :class:`~repro.workloads.streaming.TraceSource`s, not
necessarily in-RAM ``Trace`` arrays. With
``SystemConfig.stream_chunk > 0`` the per-process memo caches *on-disk
chunk segments* (a spooled :class:`~repro.workloads.streaming.ChunkedTrace`
under a per-process temp directory) instead of whole arrays, so a
trace 10x the memo budget streams through either engine with peak
memory bounded by the chunk size; ``SystemConfig.trace_file`` replays
a recorded trace (chunked directory, ``.npz``, or external text)
through the same path. Results are bit-identical to the materialized
fast path (``tests/sim/test_stream_parity.py``).

Observability: pass ``observe=True`` (or export ``REPRO_OBS=1``) and
the run carries a :class:`~repro.obs.recorder.RunObservability` on
``result.observability`` — a per-tracking-window counter series plus
an end-of-run metrics registry snapshot. Observation changes nothing
else: the serialized result is byte-identical either way (the golden
parity suite pins this).
"""

from __future__ import annotations

import atexit
import hashlib
import shutil
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.dram.power import DramPowerModel
from repro.interfaces import ActivationTracker
from repro.memctrl import build_controller
from repro.sim.config import SystemConfig
from repro.sim.results import RunResult
from repro.trackers.registry import build_tracker, spec_engine, spec_stream_chunk
from repro.workloads.characteristics import workload
from repro.workloads.streaming import (
    ChunkedTrace,
    ExternalTraceReader,
    TraceChunk,
    TraceSource,
    open_trace_source,
)
from repro.workloads.synthetic import SyntheticWorkloadGenerator
from repro.workloads.trace import Trace

#: Per-process trace memo keyed by (trace identity, workload name).
#: Traces are deterministic functions of both, so sharing across
#: simulations — including across the tasks a pool worker executes,
#: and across engines — is safe and saves regenerating a trace for
#: every tracker column. The memo is a bounded LRU: the cap keeps a
#: full 36-workload single-config sweep entirely resident (so pool
#: workers hit exactly as before), while a long multi-config sweep in
#: one process evicts least-recently-replayed traces instead of
#: growing without limit. An in-RAM entry holds numpy arrays only;
#: the Python columns replay iterates live on one trace per process
#: (see :class:`~repro.workloads.trace.Trace`).
#:
#: Entries are *sources*, not necessarily arrays: a streamed workload
#: (``stream_chunk > 0``) memoizes a :class:`ChunkedTrace` whose
#: segments live on disk under the per-process spool directory — the
#: memo then costs file handles and a manifest, not gigabytes of RAM.
#: The bool records whether this process spooled the segments itself
#: (and so owns deleting them on eviction); sources opened from user
#: paths are never deleted.
_TRACE_MEMO: "OrderedDict[Tuple[str, str], Tuple[TraceSource, bool]]" = (
    OrderedDict()
)

#: Maximum traces kept per process (> the 36-workload suite).
_TRACE_MEMO_MAX = 64

#: Lazily-created per-process directory holding spooled chunk
#: segments; removed wholesale at interpreter exit.
_SPOOL_DIR: Optional[Path] = None


def _spool_dir() -> Path:
    global _SPOOL_DIR
    if _SPOOL_DIR is None:
        _SPOOL_DIR = Path(tempfile.mkdtemp(prefix="repro-trace-spool-"))
        atexit.register(shutil.rmtree, _SPOOL_DIR, ignore_errors=True)
    return _SPOOL_DIR


def _memo_evict(entry: Tuple[TraceSource, bool]) -> None:
    source, owned = entry
    if owned and isinstance(source, ChunkedTrace):
        source.delete()


def _clear_trace_memo() -> None:
    """Drop every memo entry, deleting spooled segments (tests)."""
    while _TRACE_MEMO:
        _, entry = _TRACE_MEMO.popitem(last=False)
        _memo_evict(entry)


def _build_trace_source(
    config: SystemConfig, workload_name: str, memo_key: Tuple[str, str]
) -> Tuple[TraceSource, bool]:
    """Construct the trace source one memo entry describes.

    Returns ``(source, owned)`` where ``owned`` marks spool segments
    this process wrote (and must delete on eviction).
    """
    if config.trace_file is not None:
        source = open_trace_source(
            config.trace_file, chunk_requests=config.stream_chunk
        )
        if isinstance(source, ExternalTraceReader):
            # Re-parsing text on every replay would dominate runtime;
            # spool it once into mmapped segments and stream those.
            spool = _spool_subdir(memo_key)
            return (
                ChunkedTrace.write(
                    source.chunks(),
                    spool,
                    name=source.name,
                    chunk_requests=config.stream_chunk,
                ),
                True,
            )
        return source, False
    generator = SyntheticWorkloadGenerator(config.generator_config())
    if config.stream_chunk > 0:
        spool = _spool_subdir(memo_key)
        chunk_stream = (
            TraceChunk.of(window)
            for window in generator.iter_windows(workload(workload_name))
        )
        return (
            ChunkedTrace.write(
                chunk_stream,
                spool,
                name=workload_name,
                chunk_requests=config.stream_chunk,
            ),
            True,
        )
    return generator.generate(workload(workload_name)), False


def _spool_subdir(memo_key: Tuple[str, str]) -> Path:
    digest = hashlib.sha256(repr(memo_key).encode()).hexdigest()[:16]
    path = _spool_dir() / digest
    if path.exists():  # stale segments from a dropped entry
        shutil.rmtree(path, ignore_errors=True)
    return path


def trace_for_workload(config: SystemConfig, workload_name: str) -> TraceSource:
    """Generate (or recall) the trace of one workload on one system.

    With the default config this returns the familiar in-RAM
    ``Trace``; with ``stream_chunk > 0`` it returns a spooled
    :class:`ChunkedTrace` (bounded-memory replay), and with
    ``trace_file`` set it opens/spools the recorded trace instead of
    generating synthetically. All three are memoized per process under
    ``(config.trace_key(), workload_name)`` — the streaming axis is
    part of ``trace_key``, so materialized and chunked variants of one
    workload are distinct entries.
    """
    memo_key = (config.trace_key(), workload_name)
    entry = _TRACE_MEMO.get(memo_key)
    if entry is None:
        entry = _build_trace_source(config, workload_name, memo_key)
        _TRACE_MEMO[memo_key] = entry
        if len(_TRACE_MEMO) > _TRACE_MEMO_MAX:
            _, evicted = _TRACE_MEMO.popitem(last=False)
            _memo_evict(evicted)
    else:
        _TRACE_MEMO.move_to_end(memo_key)
    return entry[0]


def simulate_workload(
    config: SystemConfig,
    spec: str = "hydra",
    workload_name: str = "GUPS",
    observe: Optional[bool] = None,
) -> "RunResult":
    """One grid cell from names alone (the parallel-sweep work unit).

    A ``stream_chunk=`` spec parameter is resolved onto the config
    *before* trace construction, so a per-run streaming override
    reaches the memo and the cache key, not just the engine.
    """
    chunk = spec_stream_chunk(spec)
    if chunk is not None and chunk != config.stream_chunk:
        config = config.with_stream_chunk(chunk)
    return simulate(
        trace_for_workload(config, workload_name),
        config,
        spec,
        observe=observe,
    )


def make_tracker(name: str, config: SystemConfig) -> ActivationTracker:
    """Instantiate a tracker from a spec string for the given system.

    ``name`` is anything the registry accepts: a bare tracker name or
    a parameterized spec like ``hydra@trh=1000,rcc_kb=28``.
    """
    return build_tracker(name, config.tracker_context())


def simulate(
    trace: TraceSource,
    config: SystemConfig,
    spec: str = "hydra",
    observe: Optional[bool] = None,
) -> RunResult:
    """Run one trace through one system configuration.

    ``trace`` is any :class:`TraceSource` — an in-RAM ``Trace``, a
    chunked on-disk trace, or an external-format reader; both engines
    consume the stream with running statistics, so the result is
    bit-identical across representations.

    ``spec`` is a tracker spec string; its ``engine=`` parameter, when
    present, beats ``config.engine``.

    ``observe=True`` attaches the observability layer (per-window
    series + metrics registry) to this run; ``None`` defers to
    ``$REPRO_OBS``. The returned result is identical either way except
    for the non-serialized ``observability`` field.
    """
    tracker = build_tracker(spec, config.tracker_context())
    controller = build_controller(
        spec_engine(spec) or config.engine,
        geometry=config.geometry,
        timing=config.timing,
        tracker=tracker,
        blast_radius=config.blast_radius,
    )

    observation = None
    if observe is None:
        from repro.obs import obs_enabled

        observe = obs_enabled()
    if observe:
        from repro.obs import observe_controller

        observation = observe_controller(controller)

    outcome = controller.run_trace(trace, mlp=config.mlp)

    activity = controller.activity()
    power_model = DramPowerModel(config.timing)
    power = power_model.report(
        activity,
        elapsed_ns=outcome.end_time_ns,
        n_refreshes=controller.total_refreshes(),
        n_ranks=config.geometry.channels * config.geometry.ranks_per_channel,
    )
    extra: Dict[str, object] = dict(controller.result_extras())
    extra.update(tracker.extra_stats())
    observability = (
        observation.finalize(outcome.end_time_ns)
        if observation is not None
        else None
    )
    return RunResult(
        workload=trace.name,
        tracker=tracker.name,
        end_time_ns=outcome.end_time_ns,
        requests=outcome.requests,
        average_latency_ns=outcome.average_latency_ns,
        demand_line_transfers=controller.stats.demand_line_transfers,
        meta_accesses=controller.stats.meta_accesses,
        meta_line_transfers=controller.stats.meta_line_transfers,
        victim_refreshes=controller.stats.victim_refreshes,
        mitigations=tracker.mitigation_count(),
        window_resets=controller.stats.window_resets,
        activations=activity.activations,
        bus_utilization=controller.bus_utilization(),
        dram_power_w=power.average_power,
        engine=controller.engine,
        observability=observability,
        extra=extra,
    )
