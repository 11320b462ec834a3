"""Differential test: the queued engine's fused loop vs a reference.

``QueuedMemoryController.run_trace`` is one fused loop: admission, the
FR-FCFS pick and the demand read's ``Bank.access`` inlined, read
requests held as plain lists, integer counters batched into locals
and ``demand_activity``. ``ReferenceQueuedController`` below keeps the
straightforward scheduler it replaced: one ``_Request`` object per
read, a ``_service_one_read`` call per pick, ``Bank.access`` per
request and every counter bumped in place. Both share the write path
(``_perform_write``, the watermark drains and the end-of-trace flush).

They must produce the same ``RunResult`` bytes, the same DRAM
activity and every ``QueuedStats`` field, on Table 3 workloads at
T_RH=125, on an attack program, under write-queue pressure, and with
the rank activation windows on. The fused loop must also give the
same bytes whether it reads a ``Trace``, a ``ChunkedTrace`` or plain
4-tuples.
"""

from dataclasses import dataclass, fields, replace
from typing import List, Optional

import numpy as np
import pytest

from repro.attacks import compile_program, resolve
from repro.attacks.programs import double_sided_program
from repro.memctrl.base import EngineRunOutcome
from repro.memctrl.queued import QueuedMemoryController
from repro.sim import simulator
from repro.sim.config import SystemConfig
from repro.sim.simulator import simulate, trace_for_workload
from repro.workloads.streaming import ChunkedTrace
from repro.workloads.trace import Trace
from tests.memctrl.test_fused_loop import PlainTuples, _activity

#: T_RH=125 drives every feedback path: Hydra's and CRA's metadata
#: reads and writes, victim refreshes from Hydra, Graphene and CRA,
#: and D-CBF's rate-control delays with its half-window filter
#: rotation (reset_divisor=2).
CONFIG = SystemConfig(scale=1 / 512, n_windows=1, trh=125, engine="queued")
WORKLOADS = ["mcf", "GUPS", "pr_w"]
SPECS = ["hydra", "cra", "graphene", "dcbf"]

#: The feedback paths a cell must exercise, so that together the cells
#: cover every one of them.
EXERCISES = {
    ("mcf", "hydra"): ("meta_reads", "meta_writes", "victim_refreshes"),
    ("mcf", "cra"): ("meta_reads", "meta_writes"),
    ("GUPS", "cra"): ("victim_refreshes",),
    ("GUPS", "graphene"): ("victim_refreshes",),
    ("GUPS", "dcbf"): ("total_delay_ns",),
    ("pr_w", "dcbf"): ("window_resets",),
}


@dataclass
class _Request:
    arrival: float
    row_id: int
    n_lines: int
    is_write: bool
    #: Demand requests complete an MLP slot; metadata ones do not.
    slot: Optional[int] = None
    completion: float = 0.0


class ReferenceQueuedController(QueuedMemoryController):
    """The per-request scheduler the fused loop replaced.

    ``run_trace`` and ``_service_one_read`` are the original code. The
    only edits follow the shared write path: a buffered write is an
    ``(arrival, row_id, n_lines)`` tuple, ``_maybe_drain_writes`` lost
    its always-False ``forced_only`` argument, and a bank's open row is
    keyed by the global row id.
    """

    def run_trace(self, trace, mlp: int = 16) -> EngineRunOutcome:
        if mlp <= 0:
            raise ValueError("mlp must be positive")
        iterator = iter(trace)
        window = [0.0] * mlp
        issue = 0.0
        total_latency = 0.0
        count = 0
        exhausted = False
        while not exhausted:
            batch: List[_Request] = []
            while len(batch) < mlp:
                item = next(iterator, None)
                if item is None:
                    exhausted = True
                    break
                gap_ns, row_id, n_lines, is_write = item
                slot = count % mlp
                earliest = issue + gap_ns
                start = window[slot] if window[slot] > earliest else earliest
                issue = start
                # Scalar form of self._window.due(start).
                if start >= self._window.next_reset:
                    self._advance_window(start)
                self.stats.demand_accesses += 1
                self.stats.demand_line_transfers += n_lines
                request = _Request(start, row_id, n_lines, is_write, slot=slot)
                count += 1
                channel = self._channel_of(row_id)
                if is_write:
                    self._write_queues[channel].append((start, row_id, n_lines))
                    self._note_write_peak(channel)
                    window[slot] = start  # writes retire into the queue
                else:
                    self._read_queues[channel].append(request)
                    batch.append(request)
                    depth = len(self._read_queues[channel])
                    if depth > self.stats.read_queue_peak:
                        self.stats.read_queue_peak = depth
            # Service phase: drain all read queues, then bleed writes.
            for channel in range(len(self._read_queues)):
                now = issue
                while self._read_queues[channel]:
                    now = self._service_one_read(channel, now)
                self._maybe_drain_writes(channel, now)
            for request in batch:
                window[request.slot] = request.completion
                total_latency += request.completion - request.arrival
        end = max(window) if count else 0.0
        if end > self.end_time:
            self.end_time = end
        self._flush_write_queues(self.end_time)
        return EngineRunOutcome(
            end_time_ns=self.end_time,
            requests=count,
            total_latency_ns=total_latency,
        )

    def _service_one_read(self, channel: int, now: float) -> float:
        """Pick and perform one read per FR-FCFS."""
        queue = self._read_queues[channel]
        if not queue:
            return now
        # Forced write drain takes precedence at the high watermark.
        if len(self._write_queues[channel]) >= self.write_queue_high:
            self._drain_writes_to_low(channel, now)
        picked_index = 0
        for index, candidate in enumerate(queue):
            bank = self.banks[candidate.row_id // self._rows_per_bank]
            if bank.open_row == candidate.row_id:
                picked_index = index
                if index > 0:
                    self.stats.row_hit_first_picks += 1
                break
        request = queue.pop(picked_index)
        bank_index = request.row_id // self._rows_per_bank
        bank = self.banks[bank_index]
        bus = self.buses[channel]
        result = bank.access(
            max(request.arrival, now),
            request.row_id,
            request.n_lines,
            bus,
            request.is_write,
        )
        completion = result.completion
        if result.activated:
            delay = self._report_activation(request.row_id, result.act_time)
            if delay:
                completion += delay
                self.stats.total_delay_ns += delay
        request.completion = completion
        if completion > self.end_time:
            self.end_time = completion
        return completion

    def _note_write_peak(self, channel: int) -> None:
        depth = len(self._write_queues[channel])
        if depth > self.stats.write_queue_peak:
            self.stats.write_queue_peak = depth


def _run(source, spec, monkeypatch, engine=QueuedMemoryController, **knobs):
    """Simulate ``source`` on ``engine``, returning result and controller."""
    built = []

    def build(name, geometry, timing, tracker=None, blast_radius=2):
        assert name == "queued"
        built.append(
            engine(geometry, timing, tracker, blast_radius=blast_radius, **knobs)
        )
        return built[-1]

    with monkeypatch.context() as patch:
        patch.setattr(simulator, "build_controller", build)
        result = simulate(source, CONFIG, spec)
    (controller,) = built
    return result, controller


def _assert_matches_reference(source, spec, monkeypatch, **knobs):
    fused, fused_mc = _run(source, spec, monkeypatch, **knobs)
    reference, reference_mc = _run(
        source, spec, monkeypatch, engine=ReferenceQueuedController, **knobs
    )
    assert fused.to_dict() == reference.to_dict()
    assert _activity(fused_mc) == _activity(reference_mc)
    for stat in fields(reference_mc.stats):
        assert getattr(fused_mc.stats, stat.name) == getattr(
            reference_mc.stats, stat.name
        ), stat.name
    assert fused_mc.end_time == reference_mc.end_time
    assert all(not queue for queue in fused_mc._write_queues)
    # The fused loop batches its demand-read counters; the reference
    # counts them in the banks. Only their sum is reported.
    assert fused_mc.demand_activity.activations > 0
    assert reference_mc.demand_activity.activations == 0
    return fused, fused_mc


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_fused_loop_matches_reference(workload, spec, monkeypatch):
    trace = trace_for_workload(CONFIG, workload)
    _, controller = _assert_matches_reference(trace, spec, monkeypatch)
    assert controller.stats.row_hit_first_picks > 0
    for stat in EXERCISES.get((workload, spec), ()):
        assert getattr(controller.stats, stat) > 0, stat


@pytest.mark.parametrize("spec", SPECS)
def test_attack_program_matches_reference(spec, monkeypatch):
    rows = compile_program(resolve(double_sided_program(500, 2000))).rows()
    trace = Trace.from_rows(rows, gap_ns=20.0, name="double-sided")
    result, _ = _assert_matches_reference(trace, spec, monkeypatch)
    assert result.mitigations > 0


def _write_heavy_trace(n=4000, seed=7):
    """Mostly writes, to a few rows in every bank.

    It ends in 16 reads on channel 0, then 16 writes on channel 1: the
    last batch's forced drain leaves channel 1 a write for the flush.
    """
    rng = np.random.default_rng(seed)
    geometry = CONFIG.geometry
    per_channel = geometry.total_banks // geometry.channels
    banks = rng.integers(0, geometry.total_banks, n + 32)
    banks[n : n + 16] = rng.integers(0, per_channel, 16)
    banks[n + 16 :] = rng.integers(per_channel, geometry.total_banks, 16)
    writes = rng.random(n + 32) < 0.6
    writes[n : n + 16] = False
    writes[n + 16 :] = True
    return Trace(
        gaps_ns=rng.exponential(4.0, n + 32),
        rows=banks * geometry.rows_per_bank + rng.integers(0, 4, n + 32),
        lines=rng.integers(1, 3, n + 32),
        writes=writes,
        name="write-heavy",
    )


@pytest.mark.parametrize("spec", SPECS)
def test_write_pressure_matches_reference(spec, monkeypatch):
    """Low watermarks make forced drains, opportunistic drains and the
    end-of-trace flush all fire."""
    _, controller = _assert_matches_reference(
        _write_heavy_trace(),
        spec,
        monkeypatch,
        write_queue_high=4,
        write_queue_low=1,
    )
    stats = controller.stats
    assert stats.forced_write_drains > 0
    assert stats.opportunistic_writes > 0
    assert stats.flushed_writes > 0


@pytest.mark.parametrize("spec", SPECS)
def test_fused_loop_matches_reference_with_rank_windows(spec, monkeypatch):
    trace = trace_for_workload(CONFIG, "mcf")
    unconstrained = simulate(trace, CONFIG, spec)
    timing_of = SystemConfig.timing.fget
    monkeypatch.setattr(
        SystemConfig,
        "timing",
        property(
            lambda config: replace(timing_of(config), t_faw=200.0, t_rrd=40.0)
        ),
    )
    result, controller = _assert_matches_reference(trace, spec, monkeypatch)
    assert all(bank._act_window is not None for bank in controller.banks)
    # The windows must actually move ACTs, or this repeats the tests
    # above. Each channel serves its reads one after another, so only
    # windows this wide bind on demand ACTs.
    assert result.average_latency_ns != unconstrained.average_latency_ns


@pytest.mark.parametrize("spec", ["hydra", "dcbf"])
def test_trace_chunked_and_tuples_agree(spec, tmp_path, monkeypatch):
    trace = trace_for_workload(CONFIG, "mcf")
    chunked = ChunkedTrace.from_trace(trace, tmp_path / "chunked", chunk_requests=1000)
    runs = [
        _run(source, spec, monkeypatch)
        for source in (trace, chunked, PlainTuples(trace))
    ]
    (result, controller), *others = runs
    for other, other_mc in others:
        assert other.to_dict() == result.to_dict()
        assert _activity(other_mc) == _activity(controller)
        assert other_mc.stats == controller.stats
