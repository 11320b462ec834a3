"""Heterogeneous workload mixes.

The paper runs homogeneous rate-mode (8 copies of one benchmark). Real
consolidated systems mix programs — and mixes matter for Hydra because
one hot-row-heavy tenant (a parest) can saturate GCT groups whose rows
a neighbouring tenant then pays per-row costs for. This module merges
single-workload traces into a time-ordered mix so such interactions
can be studied (see ``tests/workloads/test_mixes.py`` and the
attack-alongside-victim example).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.workloads.trace import Trace


def merge_traces(traces: Sequence[Trace], name: str = "mix") -> Trace:
    """Merge traces by program-intent arrival time.

    Each input keeps its own arrival schedule (cumulative gaps); the
    merged trace interleaves all requests in global arrival order and
    re-derives inter-arrival gaps. Memory pressure adds up, exactly as
    co-running programs' demands do.
    """
    if not traces:
        raise ValueError("need at least one trace")
    arrivals = [np.cumsum(trace.gaps_ns) for trace in traces]
    all_arrivals = np.concatenate(arrivals)
    order = np.argsort(all_arrivals, kind="stable")
    rows = np.concatenate([t.rows for t in traces])[order]
    lines = np.concatenate([t.lines for t in traces])[order]
    writes = np.concatenate([t.writes for t in traces])[order]
    sorted_arrivals = all_arrivals[order]
    gaps = np.empty_like(sorted_arrivals)
    gaps[0] = sorted_arrivals[0]
    gaps[1:] = np.diff(sorted_arrivals)
    return Trace(gaps_ns=gaps, rows=rows, lines=lines, writes=writes, name=name)


def attack_alongside(
    victim_trace: Trace,
    attack_rows: Sequence[int],
    attack_rate_per_ns: float,
    name: str = "mixed-attack",
) -> Trace:
    """Inject an attack stream into a benign workload.

    ``attack_rows`` is cycled at ``attack_rate_per_ns`` for the
    duration of the victim trace — the co-located-attacker threat
    model (§2.3: an unprivileged process sharing the memory system).
    """
    if attack_rate_per_ns <= 0:
        raise ValueError("attack_rate_per_ns must be positive")
    if not attack_rows:
        raise ValueError("need at least one attack row")
    duration = victim_trace.duration_hint_ns
    n_attacks = max(1, int(duration * attack_rate_per_ns))
    gap = 1.0 / attack_rate_per_ns
    pattern = np.array(attack_rows, dtype=np.int64)
    rows = np.tile(pattern, -(-n_attacks // len(pattern)))[:n_attacks]
    attack = Trace(
        gaps_ns=np.full(n_attacks, gap),
        rows=rows,
        lines=np.ones(n_attacks, dtype=np.int32),
        writes=np.zeros(n_attacks, dtype=bool),
        name="attacker",
    )
    return merge_traces([victim_trace, attack], name=name)
