"""Tests for heterogeneous workload mixing."""

import numpy as np
import pytest

from repro.workloads.mixes import attack_alongside, merge_traces
from repro.workloads.trace import Trace


class TestMergeTraces:
    def test_preserves_all_requests(self):
        a = Trace.from_rows([1, 2, 3], gap_ns=10.0)
        b = Trace.from_rows([4, 5], gap_ns=7.0)
        merged = merge_traces([a, b])
        assert len(merged) == 5
        assert set(merged.rows.tolist()) == {1, 2, 3, 4, 5}

    def test_arrival_order_respected(self):
        a = Trace.from_rows([1], gap_ns=100.0)  # arrives at 100
        b = Trace.from_rows([2], gap_ns=5.0)  # arrives at 5
        merged = merge_traces([a, b])
        assert merged.rows.tolist() == [2, 1]

    def test_gaps_reconstruct_arrivals(self):
        a = Trace.from_rows([1, 1], gap_ns=10.0)
        b = Trace.from_rows([2], gap_ns=15.0)
        merged = merge_traces([a, b])
        arrivals = np.cumsum(merged.gaps_ns)
        assert arrivals.tolist() == [10.0, 15.0, 20.0]

    def test_single_trace_identity(self):
        a = Trace.from_rows([1, 2], gap_ns=10.0)
        merged = merge_traces([a])
        assert merged.rows.tolist() == [1, 2]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_traces([])

    def test_merge_drops_caches_but_resolves_identically(self):
        """Regression for the documented cache-drop contract: merging
        an input with warm lazy caches yields a cold-cache mix whose
        rebuilt per-request topology matches resolving the merged
        arrays directly."""
        a = Trace.from_rows([1, 130, 257], gap_ns=10.0)
        b = Trace.from_rows([384, 2], gap_ns=7.0)
        list(a.resolved_stream(128, 2))
        list(b.resolved_stream(128, 2))  # the last replayed keeps caches
        assert b._columns is not None and b._resolved
        merged = merge_traces([a, b])
        assert merged._columns is None
        assert merged._resolved == {}
        rebuilt = Trace(
            gaps_ns=merged.gaps_ns.copy(),
            rows=merged.rows.copy(),
            lines=merged.lines.copy(),
            writes=merged.writes.copy(),
        )
        assert list(merged.resolved_stream(128, 2)) == list(
            rebuilt.resolved_stream(128, 2)
        )


class TestAttackAlongside:
    def test_injects_attack_at_rate(self):
        victim = Trace.from_rows([10] * 100, gap_ns=10.0)  # 1000 ns
        mixed = attack_alongside(
            victim, attack_rows=[500, 502], attack_rate_per_ns=0.1
        )
        attack_requests = int((mixed.rows >= 500).sum())
        assert attack_requests == 100  # 1000 ns x 0.1/ns

    def test_attack_rows_cycle(self):
        victim = Trace.from_rows([10] * 50, gap_ns=10.0)
        mixed = attack_alongside(
            victim, attack_rows=[500, 502], attack_rate_per_ns=0.02
        )
        attack_rows = mixed.rows[mixed.rows >= 500]
        assert set(attack_rows.tolist()) == {500, 502}

    def test_rejects_bad_inputs(self):
        victim = Trace.from_rows([1], gap_ns=10.0)
        with pytest.raises(ValueError):
            attack_alongside(victim, [], 0.1)
        with pytest.raises(ValueError):
            attack_alongside(victim, [5], 0.0)


class TestMixThroughTracker:
    def test_attacker_mitigated_inside_benign_mix(self):
        """End to end: the attack stream inside a benign mix still
        draws mitigations from Hydra."""
        from repro.sim.config import SystemConfig
        from repro.sim.simulator import simulate

        config = SystemConfig(scale=1 / 128, n_windows=1)
        victim = Trace.from_rows(
            [i % 300 for i in range(4000)], gap_ns=12.0, name="benign"
        )
        mixed = attack_alongside(
            victim,
            attack_rows=[5000, 5002],
            attack_rate_per_ns=0.05,
            name="mix",
        )
        result = simulate(mixed, config, "hydra")
        assert result.mitigations > 0
