"""Synthetic trace generation calibrated to Table 3.

The paper drives USIMM with pintool traces of SPEC2017/PARSEC/GAP.
Those traces are proprietary-infrastructure artifacts; what the
RowHammer results actually depend on is the per-window row-activation
distribution each workload presents, which the paper itself publishes
as Table 3. This generator reproduces that distribution:

- ``unique_rows`` distinct rows, scattered uniformly over the memory
  (multi-programmed rate-mode address spaces land row-granular
  footprints all over physical memory);
- ``act250_rows`` of them "hot" (more than 250 activations within the
  window) with exponentially-tailed counts;
- the remaining rows with exponential counts clipped at 250, scaled so
  the total activation count matches ``unique_rows x acts_per_row``;
- per-activation burst lengths derived from MPKI (total LLC-miss line
  transfers divided by activations), split into row-buffer-friendly
  chunks so that metadata traffic injected between chunks causes
  realistic row-buffer interference;
- activations uniformly spread across the window (rate-mode execution
  keeps memory pressure steady).

Scaling (DESIGN.md §3): at ``scale = 1/32`` the geometry, window, and
per-workload row counts all shrink together, so rows-per-GCT-entry,
hot-rows-vs-RCC-capacity, per-bank activation rates, and ACTs-per-row
are all preserved, and so is every tracker-facing ratio the paper's
figures depend on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dram.timing import DramGeometry, DramTiming
from repro.workloads.characteristics import WorkloadCharacteristics
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic trace generator."""

    geometry: DramGeometry
    timing: DramTiming
    #: Fraction of the full-scale system being simulated.
    scale: float = 1.0
    #: Number of tracking windows of trace to generate.
    n_windows: int = 2
    #: Maximum lines per request event (row-burst chunking).
    chunk_lines: int = 16
    #: Cores and clock of the paper's system (Table 2), for MPKI math.
    cores: int = 8
    core_ghz: float = 3.2
    #: Achieved IPC assumed when converting MPKI into per-window miss
    #: volume (memory-heavy rate-mode mixes land near 1.0).
    ipc_per_core: float = 1.0
    #: No-stall IPC used for request *arrival* pacing: the rate the
    #: cores would issue misses at if memory were instantaneous. The
    #: gap between this and the achieved rate is the slack memory
    #: latency/bandwidth eats — which is where tracker overhead shows
    #: up as slowdown.
    nostall_ipc_per_core: float = 2.0
    #: Optional footprint clustering: span = unique_rows * cluster_span
    #: (None scatters over all of memory, the default).
    cluster_span: Optional[float] = None
    seed: int = 2022

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        if self.n_windows < 1:
            raise ValueError("n_windows must be >= 1")
        if self.chunk_lines < 1:
            raise ValueError("chunk_lines must be >= 1")

    @property
    def instructions_per_window(self) -> float:
        window_s = self.timing.refresh_window * 1e-9
        return self.cores * self.core_ghz * 1e9 * self.ipc_per_core * window_s


def usable_rows(geometry: DramGeometry) -> int:
    """Rows available to workloads (excludes the metadata reservation).

    Reserves enough rows per bank for 2-byte-per-row counter tables,
    covering every tracker configuration in the study.
    """
    return geometry.total_banks * _usable_per_bank(geometry)


def _usable_per_bank(geometry: DramGeometry) -> int:
    counters_per_row = geometry.row_size_bytes // 2
    reserved = -(-geometry.rows_per_bank // counters_per_row)
    return geometry.rows_per_bank - reserved


def _map_usable_indices(indices: np.ndarray, geometry: DramGeometry) -> np.ndarray:
    """Map dense usable-row indices to global row ids (skip meta rows)."""
    per_bank = _usable_per_bank(geometry)
    banks = indices // per_bank
    locals_ = indices % per_bank
    return banks * geometry.rows_per_bank + locals_


def _stable_seed(*parts) -> int:
    text = "|".join(str(p) for p in parts)
    return zlib.crc32(text.encode())


class SyntheticWorkloadGenerator:
    """Generates Table 3-calibrated traces for one system configuration."""

    #: Mean of the exponential tail added above 250 for hot rows.
    HOT_TAIL_MEAN = 110.0
    #: Hot/cold boundary of Table 3's "ACT-250+" statistic.
    HOT_THRESHOLD = 250

    def __init__(self, config: GeneratorConfig) -> None:
        self.config = config
        self._usable_total = usable_rows(config.geometry)
        if self._usable_total <= 0:
            raise ValueError("geometry has no usable rows")

    def generate(self, workload: WorkloadCharacteristics) -> Trace:
        """Build the multi-window trace for one workload.

        The windows' arrays become the trace's parts as they are, so
        the trace is never held twice on the way.
        """
        return Trace.concatenate(
            list(self.iter_windows(workload)), name=workload.name
        )

    def iter_windows(self, workload: WorkloadCharacteristics):
        """Yield the trace one tracking window at a time.

        Each window is an independent seeded draw
        (``_stable_seed(seed, name, index)``), so writing them to disk
        as they come produces exactly the requests :meth:`generate`
        holds — with peak memory bounded by one window instead of
        ``n_windows``.
        """
        for window_index in range(self.config.n_windows):
            yield self._generate_window(workload, window_index)

    # ------------------------------------------------------------------

    def _generate_window(
        self, workload: WorkloadCharacteristics, window_index: int
    ) -> Trace:
        config = self.config
        rng = np.random.default_rng(
            _stable_seed(config.seed, workload.name, window_index)
        )
        unique = max(1, int(round(workload.unique_rows * config.scale)))
        unique = min(unique, self._usable_total)
        hot = min(unique, int(round(workload.act250_rows * config.scale)))
        target_acts = max(unique, int(round(unique * workload.acts_per_row)))

        rows = self._sample_rows(rng, unique)
        counts = self._assign_counts(rng, unique, hot, target_acts)

        acts = np.repeat(rows, counts)
        rng.shuffle(acts)
        return self._chunk_into_events(workload, acts)

    def _sample_rows(self, rng: np.random.Generator, unique: int) -> np.ndarray:
        config = self.config
        if config.cluster_span is None:
            indices = rng.choice(self._usable_total, size=unique, replace=False)
        else:
            span = min(
                self._usable_total, max(unique, int(unique * config.cluster_span))
            )
            base = int(rng.integers(0, self._usable_total - span + 1))
            indices = base + rng.choice(span, size=unique, replace=False)
        return _map_usable_indices(np.sort(indices), config.geometry)

    def _assign_counts(
        self,
        rng: np.random.Generator,
        unique: int,
        hot: int,
        target_acts: int,
    ) -> np.ndarray:
        """Per-row activation counts matching the Table 3 statistics."""
        cap = self.HOT_THRESHOLD
        cold = unique - hot
        counts = np.empty(unique, dtype=np.int64)
        # Hot rows first in the array (the row ids are already shuffled
        # by uniform sampling, so position carries no bias).
        if hot:
            counts[:hot] = cap + 1 + rng.exponential(
                self.HOT_TAIL_MEAN, size=hot
            ).astype(np.int64)
        if cold:
            hot_total = int(counts[:hot].sum()) if hot else 0
            cold_budget = max(cold, target_acts - hot_total)
            mean = cold_budget / cold
            draw = rng.exponential(mean, size=cold).astype(np.int64) + 1
            counts[hot:] = np.minimum(draw, cap)
        # One correction pass toward the exact activation total.
        deficit = target_acts - int(counts.sum())
        if deficit > 0:
            if hot:
                counts[:hot] += deficit // hot
            else:
                room = cap - counts
                order = np.argsort(-room)
                add = np.zeros(unique, dtype=np.int64)
                per_row = max(1, deficit // max(1, int((room > 0).sum()) or 1))
                add[order] = np.minimum(room[order], per_row)
                overshoot = int(add.sum()) - deficit
                if overshoot > 0:
                    add[order[-1]] = max(0, add[order[-1]] - overshoot)
                counts += add
        elif deficit < 0:
            scalefactor = target_acts / max(1, int(counts.sum()))
            counts = np.maximum(1, (counts * scalefactor).astype(np.int64))
        return counts

    def _chunk_into_events(
        self, workload: WorkloadCharacteristics, acts: np.ndarray
    ) -> Trace:
        config = self.config
        # instructions_per_window already reflects the (scaled) window,
        # so this access count is directly comparable to len(acts).
        accesses = workload.mpki_llc / 1000.0 * config.instructions_per_window
        lines_per_act = int(np.clip(round(accesses / max(1, len(acts))), 1, 64))
        chunk = config.chunk_lines
        n_chunks = -(-lines_per_act // chunk)
        if n_chunks == 1:
            rows_ev = acts
            lines_ev = np.full(len(acts), lines_per_act, dtype=np.int32)
        else:
            remainder = lines_per_act - chunk * (n_chunks - 1)
            pattern = np.array([chunk] * (n_chunks - 1) + [remainder], dtype=np.int32)
            rows_ev = np.repeat(acts, n_chunks)
            lines_ev = np.tile(pattern, len(acts))
        # Arrival pacing: the no-stall miss rate of the cores. Each
        # event's gap is proportional to the lines (program work) it
        # represents. Compute-bound workloads (low MPKI) get long gaps
        # and absorb tracker overhead; memory-bound ones do not.
        ns_per_line = 1000.0 / (
            workload.mpki_llc
            * config.cores
            * config.nostall_ipc_per_core
            * config.core_ghz
        )
        gaps = lines_ev.astype(np.float64) * ns_per_line
        return Trace(
            gaps_ns=gaps,
            rows=rows_ev,
            lines=lines_ev,
            writes=np.zeros(len(rows_ev), dtype=bool),
            name=workload.name,
        )
