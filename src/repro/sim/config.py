"""Top-level system configuration (Table 2) and the scaling policy.

One :class:`SystemConfig` pins down everything an experiment needs:
the (possibly scaled) DRAM geometry and timing, the Hydra design
point, baseline tracker parameters, core-model MLP, and trace
generation settings. All the paper's experiments are expressed as
variations of this object (see ``repro.sim.sweep``).

Scaling (DESIGN.md §3): ``scale < 1`` shrinks rows-per-bank, the
tracking window, tracker structures, and workload footprints together,
preserving every ratio the results depend on. ``scale = 1`` runs the
paper's full 32 GB / 64 ms configuration.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Dict, Optional

from repro.core.config import HydraConfig
from repro.dram.timing import PAPER_GEOMETRY, PAPER_TIMING, DramGeometry, DramTiming
from repro.memctrl.base import normalize_engine
from repro.trackers.registry import TrackerContext
from repro.workloads.synthetic import GeneratorConfig

#: Environment variable overriding the default experiment scale
#: (interpreted as a denominator: REPRO_SCALE=64 means scale=1/64).
SCALE_ENV_VAR = "REPRO_SCALE"
DEFAULT_SCALE_DENOMINATOR = 32

#: Environment variable setting the default sweep parallelism
#: (REPRO_JOBS=0 means one worker per CPU; unset means serial).
JOBS_ENV_VAR = "REPRO_JOBS"

#: Environment variable relocating the simulation result cache.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"


def default_cache_dir() -> "Path":
    """Result cache location: REPRO_CACHE_DIR, else ./.repro_cache."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.cwd() / ".repro_cache"


def default_scale() -> float:
    """Experiment scale: 1/32 by default, overridable via REPRO_SCALE."""
    denominator = int(os.environ.get(SCALE_ENV_VAR, DEFAULT_SCALE_DENOMINATOR))
    if denominator < 1:
        raise ValueError(f"{SCALE_ENV_VAR} must be >= 1")
    return 1.0 / denominator


def default_jobs() -> int:
    """Sweep worker count: REPRO_JOBS, or 1 (serial) when unset.

    ``REPRO_JOBS=0`` asks for one worker per available CPU.
    """
    env = os.environ.get(JOBS_ENV_VAR)
    if env is None or env == "":
        return 1
    return resolve_jobs(env)


def resolve_jobs(jobs) -> int:
    """Normalize a jobs request (None / int / numeric string) to >= 1.

    ``None`` means "use the environment default" (``REPRO_JOBS``, else
    serial); ``0`` means "all CPUs". Anything else must be a positive
    integer.
    """
    if jobs is None:
        return default_jobs()
    count = int(jobs)
    if count == 0:
        return os.cpu_count() or 1
    if count < 0:
        raise ValueError(f"jobs must be >= 0, got {count}")
    return count


@dataclass(frozen=True)
class SystemConfig:
    """One fully-specified experimental system."""

    #: Fraction of the paper's full-size system (1.0 = 32 GB / 64 ms).
    scale: float = 1.0
    #: RowHammer threshold being defended.
    trh: int = 500
    #: Hydra structure sizes at full scale (Figure 9 varies gct).
    gct_entries_full: int = 32768
    rcc_entries_full: int = 8192
    rcc_ways: int = 16
    tg_fraction: float = 0.80
    #: Multiplier applied to Hydra structures for low-T_RH points
    #: (Figure 7 uses 2x at 250 and 4x at 125).
    structure_scale: int = 1
    #: CRA metadata cache capacity at full scale (Figure 2 sweeps it).
    cra_cache_full_bytes: int = 64 * 1024
    #: Victim refresh blast radius (§4.7).
    blast_radius: int = 2
    #: Outstanding-request limit of the core model (calibration point:
    #: reproduces the paper's Figure 5 averages, see EXPERIMENTS.md).
    mlp: int = 16
    #: Trace shape.
    n_windows: int = 2
    chunk_lines: int = 16
    seed: int = 2022
    #: Memory-controller scheduling engine: ``"fast"`` (in-order
    #: resolution, the sweep default), ``"queued"`` (FR-FCFS read
    #: queues + watermark-drained write queue). See
    #: :data:`repro.memctrl.ENGINES`.
    engine: str = "fast"
    #: Streaming chunk size in requests: ``0`` (default) materializes
    #: traces whole in RAM (the historical fast path); ``> 0`` streams
    #: them through on-disk chunk segments of this many requests, so
    #: peak memory is bounded by the chunk, not the trace (DESIGN.md
    #: §13). Results are bit-identical either way.
    stream_chunk: int = 0
    #: Replay a recorded trace instead of generating the synthetic
    #: workload: a chunked-trace directory, an ``.npz`` trace, or an
    #: external text trace (``<gap_ns> <R|W> <row_id> [n_lines]``).
    trace_file: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        if self.structure_scale < 1:
            raise ValueError("structure_scale must be >= 1")
        if self.stream_chunk < 0:
            raise ValueError("stream_chunk must be >= 0 (0 = materialized)")
        normalize_engine(self.engine)

    # ------------------------------------------------------------------
    # Derived hardware
    # ------------------------------------------------------------------

    @property
    def geometry(self) -> DramGeometry:
        if self.scale == 1.0:
            return PAPER_GEOMETRY
        return PAPER_GEOMETRY.scaled(self.scale)

    @property
    def timing(self) -> DramTiming:
        if self.scale == 1.0:
            return PAPER_TIMING
        return PAPER_TIMING.scaled(self.scale)

    def tracker_context(self) -> TrackerContext:
        """The tracker-relevant slice of this system.

        This is what spec-built trackers are constructed from (see
        :mod:`repro.trackers.registry`); every tracker-parameter
        derivation lives on the context so spec strings and
        SystemConfig produce identical trackers.
        """
        return TrackerContext(
            geometry=self.geometry,
            timing=self.timing,
            trh=self.trh,
            scale=self.scale,
            gct_entries_full=self.gct_entries_full,
            rcc_entries_full=self.rcc_entries_full,
            rcc_ways=self.rcc_ways,
            tg_fraction=self.tg_fraction,
            structure_scale=self.structure_scale,
            cra_cache_full_bytes=self.cra_cache_full_bytes,
            blast_radius=self.blast_radius,
        )

    def hydra_config(
        self,
        enable_gct: bool = True,
        enable_rcc: bool = True,
        randomize_mapping: bool = False,
    ) -> HydraConfig:
        """The Hydra design point, scaled with the system."""
        return self.tracker_context().hydra_config(
            enable_gct=enable_gct,
            enable_rcc=enable_rcc,
            randomize_mapping=randomize_mapping,
        )

    def cra_cache_bytes(self) -> int:
        """CRA metadata cache, scaled, kept to whole 16-way sets."""
        return self.tracker_context().cra_cache_bytes()

    def generator_config(self) -> GeneratorConfig:
        return GeneratorConfig(
            geometry=self.geometry,
            timing=self.timing,
            scale=self.scale,
            n_windows=self.n_windows,
            chunk_lines=self.chunk_lines,
            seed=self.seed,
        )

    # ------------------------------------------------------------------
    # Experiment variations
    # ------------------------------------------------------------------

    def with_trh(self, trh: int, structure_scale: Optional[int] = None) -> "SystemConfig":
        """Retarget T_RH, scaling Hydra structures as Figure 7 does."""
        if structure_scale is None:
            structure_scale = max(1, 500 // trh)
        return replace(self, trh=trh, structure_scale=structure_scale)

    def with_gct_entries(self, gct_entries_full: int) -> "SystemConfig":
        return replace(self, gct_entries_full=gct_entries_full)

    def with_tg_fraction(self, tg_fraction: float) -> "SystemConfig":
        return replace(self, tg_fraction=tg_fraction)

    def with_cra_cache(self, full_bytes: int) -> "SystemConfig":
        return replace(self, cra_cache_full_bytes=full_bytes)

    def with_engine(self, engine: str) -> "SystemConfig":
        """The same system run on a different scheduling engine."""
        return replace(self, engine=normalize_engine(engine))

    def with_stream_chunk(self, stream_chunk: int) -> "SystemConfig":
        """The same system with a different trace-streaming chunk."""
        return replace(self, stream_chunk=stream_chunk)

    def with_trace_file(self, trace_file: Optional[str]) -> "SystemConfig":
        """The same system replaying a recorded trace file."""
        return replace(self, trace_file=trace_file)

    # ------------------------------------------------------------------
    # Serialization (the sweep service ships configs over the wire)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form; every field is a primitive by construction."""
        return asdict(self)

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "SystemConfig":
        """Load a serialized config, dropping unknown (newer) keys."""
        known = {spec.name for spec in fields(SystemConfig)}
        return SystemConfig(
            **{k: v for k, v in data.items() if k in known}
        )

    def _stream_suffix(self) -> str:
        """Key suffix for the streaming axis (empty at the defaults).

        Appending only non-default values keeps every pre-streaming
        cache/trace key byte-identical (the golden-parity suite pins
        the strings), so existing result caches stay warm.
        """
        suffix = ""
        if self.stream_chunk:
            suffix += f"-sc{self.stream_chunk}"
        if self.trace_file:
            import zlib

            suffix += f"-tf{zlib.crc32(str(self.trace_file).encode()):08x}"
        return suffix

    def cache_key(self) -> str:
        """Stable identifier for result caching.

        The engine is part of the key, so cached results from one
        engine are never served for another (fast and queued each key
        separately). The streaming axis (``stream_chunk``/
        ``trace_file``) participates whenever it is non-default;
        replayed trace files are keyed by path — clear the cache if a
        file's contents change in place.
        """
        return (
            f"s{self.scale:.6f}-t{self.trh}-g{self.gct_entries_full}"
            f"-r{self.rcc_entries_full}x{self.rcc_ways}-f{self.tg_fraction}"
            f"-x{self.structure_scale}-c{self.cra_cache_full_bytes}"
            f"-b{self.blast_radius}-m{self.mlp}-w{self.n_windows}"
            f"-k{self.chunk_lines}-e{self.seed}-n{self.engine}"
            + self._stream_suffix()
        )

    def trace_key(self) -> str:
        """Identity of the generated trace (engine/tracker agnostic).

        Only the fields trace construction consumes participate, so
        e.g. fast and queued runs of one system share a
        memoized trace instead of regenerating it per engine. The
        streaming axis is
        part of trace identity: a chunked spool and a materialized
        trace are distinct memo entries.
        """
        return (
            f"s{self.scale:.6f}-w{self.n_windows}"
            f"-k{self.chunk_lines}-e{self.seed}"
            + self._stream_suffix()
        )


def baseline_table2() -> Dict[str, str]:
    """The paper's Table 2, as data (for documentation and tests)."""
    return {
        "Cores (OoO)": "8 @ 3.2GHz",
        "ROB size": "160",
        "Fetch and Retire width": "4",
        "Last Level Cache (Shared)": "8MB, 16-Way, 64B lines",
        "Memory size": "32 GB - DDR4",
        "Memory bus speed": "1.6 GHz (3.2GHz DDR)",
        "tRCD-tRP-tCAS": "14-14-14 ns",
        "tRC and tRFC": "45ns and 350 ns",
        "Banks x Ranks x Channels": "16 x 1 x 2",
        "Size of row": "8KB",
    }
