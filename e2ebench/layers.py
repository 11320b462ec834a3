"""Which public call times which layer, and the per-layer metrics.

``install`` wraps one public entry of each layer module (see the table
in README.md); ``per_layer_metrics`` turns the recorded spans into the
metrics BENCHMARK.json lists under ``per_layer``. Tracker cost is not
wrapped per activation: it is the difference between a tracker cell's
engine time and the baseline cell's on the same trace.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import repro.service.worker as worker_module
import repro.sim.simulator as simulator_module
from repro.memctrl.controller import MemoryController
from repro.memctrl.queued import QueuedMemoryController
from repro.obs.manifest import ManifestWriter
from repro.service.client import ServiceClient
from repro.service.http import SweepService
from repro.sim.cache import ResultCache
from repro.sim.results import GridResult, RunResult
from repro.sim.sweep import ExperimentRunner
from repro.workloads.synthetic import SyntheticWorkloadGenerator

from tracing import BENCH_LAYER, Span, Tracer

#: ``to_dict`` payloads whose JSON size is measured (outside the span).
PAYLOAD_SIZE_SAMPLES = 64

#: Self time is reported for each of these layers as ``self_s.<layer>``.
LAYERS = (
    "repro.workloads",
    "repro.sim.simulator",
    "repro.memctrl",
    "repro.memctrl.queued",
    "repro.sim.results",
    "repro.sim.cache",
    "repro.obs.manifest",
    "repro.sim.sweep",
    "repro.service.worker",
    "repro.service.http",
    "repro.service.client",
    BENCH_LAYER,
)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry; ``tracer.restore()`` undoes it."""
    sampled = []

    def trace_len(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        span.attrs["requests"] = len(result)

    def cell(span: Span, args: tuple, kwargs: dict, result: RunResult) -> None:
        trace, config = args[0], args[1]
        span.attrs.update(
            pair=(config.trace_key(), trace.name, config.trh),
            result=result,
        )

    def payload_size(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        if len(sampled) < PAYLOAD_SIZE_SAMPLES:
            sampled.append(1)
            span.attrs["bytes"] = len(json.dumps(result))

    def cache_hit(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        span.attrs["hit"] = result is not None

    def lines(span: Span, args: tuple, kwargs: dict, result: int) -> None:
        span.attrs["records"] = result

    def grid_cells(span: Span, args: tuple, kwargs: dict, result: GridResult) -> None:
        span.attrs["cells"] = sum(len(result[t]) for t in result)

    def from_cache(span: Span, args: tuple, kwargs: dict, result: tuple) -> None:
        span.attrs["from_cache"] = bool(result[1])

    tracer.wrap(SyntheticWorkloadGenerator, "generate", "repro.workloads", trace_len)
    tracer.wrap(simulator_module, "simulate", "repro.sim.simulator", cell)
    tracer.wrap(MemoryController, "run_trace", "repro.memctrl")
    tracer.wrap(QueuedMemoryController, "run_trace", "repro.memctrl.queued")
    tracer.wrap(RunResult, "to_dict", "repro.sim.results", payload_size)
    tracer.wrap(RunResult, "from_dict", "repro.sim.results")
    tracer.wrap(GridResult, "to_payload", "repro.sim.results")
    tracer.wrap(ResultCache, "load", "repro.sim.cache", cache_hit)
    tracer.wrap(ResultCache, "store", "repro.sim.cache")
    tracer.wrap(ResultCache, "lease", "repro.sim.cache")
    tracer.wrap(ManifestWriter, "append", "repro.obs.manifest", lines)
    tracer.wrap(ExperimentRunner, "run_grid", "repro.sim.sweep", grid_cells)
    tracer.wrap(worker_module, "run_cell", "repro.service.worker", from_cache)
    tracer.wrap(SweepService, "dispatch", "repro.service.http")
    for endpoint in ("submit", "status", "result"):
        tracer.wrap(ServiceClient, endpoint, "repro.service.client")


class CacheCounters:
    """Every ResultCache built while installed, for its counters."""

    def __init__(self) -> None:
        self.instances: List[ResultCache] = []
        self._original = ResultCache.__init__

    def install(self) -> None:
        original, instances = self._original, self.instances

        def init(cache: ResultCache, *args: Any, **kwargs: Any) -> None:
            original(cache, *args, **kwargs)
            instances.append(cache)

        ResultCache.__init__ = init

    def restore(self) -> None:
        ResultCache.__init__ = self._original

    def totals(self) -> Tuple[int, int]:
        return (
            sum(c.evictions for c in self.instances),
            sum(c.leases_reclaimed for c in self.instances),
        )


# ----------------------------------------------------------------------
# Simulated counters (the ledger, and the tracker fractions)
# ----------------------------------------------------------------------


def _weighted(payloads: Sequence[Dict[str, Any]], value) -> float:
    weight = sum(p["activations"] for p in payloads)
    if not weight:
        return 0.0
    return sum(value(p) * p["activations"] for p in payloads) / weight


def simulated_counters(payloads: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Exact simulated statistics of a set of cells, plus their digest."""
    payloads = sorted(
        payloads, key=lambda p: (p["tracker"], p["engine"], p["workload"])
    )
    hydra = [p for p in payloads if p["tracker"] == "hydra"]
    cra = [p for p in payloads if p["tracker"] == "cra"]

    def fraction(key: str):
        return lambda p: p["extra"]["distribution"][key]

    return {
        "cells": len(payloads),
        "requests": sum(p["requests"] for p in payloads),
        "activations": sum(p["activations"] for p in payloads),
        "mitigations": sum(p["mitigations"] for p in payloads),
        "end_time_ns_sum": sum(p["end_time_ns"] for p in payloads),
        "hydra_gct_only_frac": _weighted(hydra, fraction("gct_only")),
        "hydra_rcc_hit_frac": _weighted(hydra, fraction("rcc_hit")),
        "hydra_rct_access_frac": _weighted(hydra, fraction("rct_access")),
        "cra_cache_miss_rate": _weighted(cra, lambda p: p["extra"]["cache_miss_rate"]),
        "digest": hashlib.sha256(
            json.dumps(payloads, sort_keys=True).encode()
        ).hexdigest()[:16],
    }


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def per_layer_metrics(
    tracer: Tracer,
    job_statuses: Sequence[Any],
    cache_counters: Tuple[int, int],
    traced_s: float,
    untraced_s: float,
) -> Dict[str, float]:
    spans = tracer.spans
    selfs = tracer.self_times()
    kids = tracer.children()
    named: Dict[str, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        named[span.name].append(index)

    def durations(name: str, where=lambda s: True) -> List[float]:
        return [spans[i].duration for i in named[name] if where(spans[i])]

    # -- simulated cells: engine time per cell, paired on one trace ---------
    cells = []
    for index in named["repro.sim.simulator.simulate"]:
        span = spans[index]
        if "result" not in span.attrs:
            continue  # the call raised
        engine_s = sum(
            spans[k].duration for k in kids.get(index, []) if spans[k].name.endswith("run_trace")
        )
        cells.append((span.attrs["result"], span.attrs["pair"], engine_s))
    baseline_s: Dict[Any, List[float]] = defaultdict(list)
    for result, pair, engine_s in cells:
        if result.tracker == "baseline" and result.engine == "fast":
            baseline_s[pair].append(engine_s)

    def tracker_cost(tracker: str) -> Tuple[float, int]:
        """Engine seconds above baseline, and activations, of paired cells."""
        extra, acts = 0.0, 0
        for result, pair, engine_s in cells:
            if result.tracker == tracker and result.engine == "fast" and baseline_s[pair]:
                extra += engine_s - _mean(baseline_s[pair])
                acts += result.activations
        return extra, acts

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return scale * numerator / denominator if denominator else 0.0

    m: Dict[str, float] = {}
    generate = named["SyntheticWorkloadGenerator.generate"]
    synth_s = sum(spans[i].duration for i in generate)
    synth_req = sum(spans[i].attrs["requests"] for i in generate if "requests" in spans[i].attrs)
    m["workloads.synth_s"] = synth_s
    m["workloads.synth_ns_per_req"] = per(synth_s, synth_req, 1e9)

    base_cells = [(r, s) for r, _, s in cells if r.tracker == "baseline" and r.engine == "fast"]
    fast_s = sum(s for _, s in base_cells)
    m["memctrl.fast_s"] = fast_s
    m["memctrl.fast_ns_per_req"] = per(fast_s, sum(r.requests for r, _ in base_cells), 1e9)
    queued = [(r, s) for r, _, s in cells if r.engine == "queued"]
    queued_s = sum(s for _, s in queued)
    m["memctrl.queued_s"] = queued_s
    m["memctrl.queued_ns_per_req"] = per(queued_s, sum(r.requests for r, _ in queued), 1e9)
    m["memctrl.simulated_ms"] = sum(r.end_time_ns for r, _, _ in cells) / 1e6
    m["dram.activations"] = sum(r.activations for r, _, _ in cells)

    hydra_s, hydra_acts = tracker_cost("hydra")
    hydra = [r.to_dict() for r, _, _ in cells if r.tracker == "hydra"]
    hydra_counters = simulated_counters(hydra)
    m["core.hydra_self_s"] = hydra_s
    m["core.hydra_ns_per_act"] = per(hydra_s, hydra_acts, 1e9)
    m["core.gct_only_frac"] = hydra_counters["hydra_gct_only_frac"]
    m["core.rcc_hit_frac"] = hydra_counters["hydra_rcc_hit_frac"]
    m["core.rct_access_frac"] = hydra_counters["hydra_rct_access_frac"]
    m["core.hydra_mitigations"] = hydra_counters["mitigations"]

    for tracker in ("graphene", "cra"):
        cost, acts = tracker_cost(tracker)
        m[f"trackers.{tracker}_self_s"] = cost
        m[f"trackers.{tracker}_ns_per_act"] = per(cost, acts, 1e9)
    cra = [r.to_dict() for r, _, _ in cells if r.tracker == "cra"]
    m["trackers.cra_cache_miss_rate"] = simulated_counters(cra)["cra_cache_miss_rate"]
    m["trackers.cra_meta_accesses"] = sum(p["meta_accesses"] for p in cra)
    m["trackers.mitigations"] = sum(
        r.mitigations for r, _, _ in cells if r.tracker not in ("baseline", "hydra")
    )

    m["results.to_dict_us"] = _mean(durations("RunResult.to_dict")) * 1e6
    m["results.from_dict_us"] = _mean(durations("RunResult.from_dict")) * 1e6
    m["results.payload_bytes"] = _mean(
        [spans[i].attrs["bytes"] for i in named["RunResult.to_dict"] if "bytes" in spans[i].attrs]
    )
    m["results.grid_payload_ms"] = _mean(durations("GridResult.to_payload")) * 1e3

    loads = [spans[i] for i in named["ResultCache.load"]]
    hits = sum(1 for s in loads if s.attrs.get("hit"))
    m["cache.load_us"] = _mean([s.duration for s in loads]) * 1e6
    m["cache.store_us"] = _mean(durations("ResultCache.store")) * 1e6
    m["cache.lease_us"] = _mean(durations("ResultCache.lease")) * 1e6
    m["cache.hits"] = hits
    m["cache.misses"] = len(loads) - hits
    m["cache.hit_ratio"] = per(hits, len(loads))
    m["cache.stores"] = len(named["ResultCache.store"])
    m["cache.evictions"], m["cache.leases_reclaimed"] = cache_counters

    appends = named["ManifestWriter.append"]
    m["manifest.append_us"] = _mean(durations("ManifestWriter.append")) * 1e6
    m["manifest.records"] = sum(spans[i].attrs.get("records", 0) for i in appends)

    grids = named["ExperimentRunner.run_grid"]
    m["sweep.overhead_s"] = sum(selfs[i] for i in grids)
    m["sweep.cells"] = sum(spans[i].attrs.get("cells", 0) for i in grids)

    done = [s for s in job_statuses if s is not None and s.state == "completed"]
    job_ms = [(s.updated_at - s.created_at) * 1e3 for s in done]
    m["broker.job_ms"] = _mean(job_ms)
    m["broker.per_cell_us"] = per(sum(job_ms), sum(s.total_cells for s in done), 1e3)
    m["broker.cache_hits"] = sum(s.cache_hits for s in done)
    m["broker.retries"] = sum(s.retries for s in done)
    m["worker.cold_cell_ms"] = _mean(
        durations("repro.service.worker.run_cell", lambda s: s.attrs.get("from_cache") is False)
    ) * 1e3

    submits = durations("ServiceClient.submit")
    m["http.submit_ms"] = _mean(submits) * 1e3
    m["http.status_ms"] = _mean(durations("ServiceClient.status")) * 1e3
    m["http.result_ms"] = _mean(durations("ServiceClient.result")) * 1e3
    m["http.requests_per_job"] = per(
        len(submits) + len(named["ServiceClient.status"]) + len(named["ServiceClient.result"]),
        len(submits),
    )

    layer_self: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        layer_self[span.layer] += selfs[index]
    for layer in LAYERS:
        m[f"self_s.{layer}"] = layer_self[layer]

    rounds = named["round"]
    round_s = sum(spans[i].duration for i in rounds)
    unattributed = sum(selfs[i] for i in rounds)
    m["trace.overhead_frac"] = per(traced_s, untraced_s) - 1.0
    m["trace.unattributed_frac"] = per(unattributed, round_s)
    return m
