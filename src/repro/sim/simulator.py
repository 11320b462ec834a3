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
:class:`~repro.sim.config.SystemConfig`. The spec's ``engine=``
parameter beats the config's field of the same name; everything else
about the system comes from the config.

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

Traces are :class:`~repro.workloads.streaming.TraceSource`s, and every
source replays the same way: one bounded chunk at a time, read through
lazy column views (:func:`~repro.workloads.trace.resolved_chunk_stream`). A
synthetic trace is held in RAM as numpy arrays only;
``SystemConfig.trace_file`` replays a recorded trace instead — a
chunked directory streams from disk, an ``.npz`` or text file is
parsed once into arrays. Results are bit-identical across
representations (``tests/sim/test_stream_parity.py``).

Observability: pass ``observe=True`` (or export ``REPRO_OBS=1``) and
the run carries a :class:`~repro.obs.recorder.RunObservability` on
``result.observability`` — a per-tracking-window counter series plus
an end-of-run metrics registry snapshot. Observation changes nothing
else: the serialized result is byte-identical either way (the golden
parity suite pins this).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.dram.power import DramPowerModel
from repro.interfaces import ActivationTracker
from repro.memctrl import build_controller
from repro.sim.config import SystemConfig
from repro.sim.results import RunResult
from repro.trackers.registry import build_tracker, spec_engine
from repro.workloads.characteristics import workload
from repro.workloads.streaming import TraceSource, open_trace_source
from repro.workloads.synthetic import SyntheticWorkloadGenerator
from repro.workloads.trace import Trace

#: Per-process trace memo keyed by (trace identity, workload name).
#: Traces are deterministic functions of both, so sharing across
#: simulations — including across the tasks a pool worker executes,
#: and across engines — is safe and saves regenerating a trace for
#: every tracker column. An entry holds a trace's numpy arrays and
#: nothing else (a chunked directory: its manifest), and the memo is
#: an LRU bounded by entries and by those arrays' bytes. Pool threads
#: share it, so every lookup, insert and eviction holds
#: ``_TRACE_MEMO_LOCK``.
_TRACE_MEMO: "OrderedDict[Tuple[str, str], TraceSource]" = OrderedDict()
_TRACE_MEMO_LOCK = threading.Lock()

#: Both bounds keep a whole 1/32 suite resident (36 workloads hold
#: ~6.0 M requests, ~120 MB), so a sweep's pool workers regenerate
#: nothing. The byte budget evicts large-scale traces; the entry cap
#: keeps a long-lived server flat when every job brings small traces
#: of a new config. The newest entry stays even when it alone is over
#: budget: its replay is about to read it.
_TRACE_MEMO_MAX = 64
_TRACE_MEMO_BYTES = 256 << 20


def _clear_trace_memo() -> None:
    """Drop every memo entry (tests)."""
    with _TRACE_MEMO_LOCK:
        _TRACE_MEMO.clear()


def _memo_bytes(source: TraceSource) -> int:
    return source.nbytes if isinstance(source, Trace) else 0


def _build_trace_source(config: SystemConfig, workload_name: str) -> TraceSource:
    if config.trace_file is not None:
        return open_trace_source(config.trace_file)
    generator = SyntheticWorkloadGenerator(config.generator_config())
    return generator.generate(workload(workload_name))


def trace_for_workload(config: SystemConfig, workload_name: str) -> TraceSource:
    """Generate (or recall) the trace of one workload on one system.

    With the default config this returns the synthetic in-RAM
    ``Trace``; with ``trace_file`` set it opens the recorded trace
    instead (see :func:`~repro.workloads.streaming.open_trace_source`).
    Both are memoized per process under ``(config.trace_key(),
    workload_name)``.
    """
    memo_key = (config.trace_key(), workload_name)
    with _TRACE_MEMO_LOCK:
        source = _TRACE_MEMO.get(memo_key)
        if source is None:
            source = _build_trace_source(config, workload_name)
            _TRACE_MEMO[memo_key] = source
            held = sum(_memo_bytes(entry) for entry in _TRACE_MEMO.values())
            while len(_TRACE_MEMO) > 1 and (
                held > _TRACE_MEMO_BYTES or len(_TRACE_MEMO) > _TRACE_MEMO_MAX
            ):
                _, evicted = _TRACE_MEMO.popitem(last=False)
                held -= _memo_bytes(evicted)
        else:
            _TRACE_MEMO.move_to_end(memo_key)
    return source


def simulate_workload(
    config: SystemConfig,
    spec: str = "hydra",
    workload_name: str = "GUPS",
    observe: Optional[bool] = None,
) -> "RunResult":
    """One grid cell from names alone (the parallel-sweep work unit)."""
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
    return build_tracker(name, config)


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
    tracker = build_tracker(spec, config)
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
