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
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.core.config import MIN_TRH, HydraConfig
from repro.dram.timing import PAPER_GEOMETRY, PAPER_TIMING, DramGeometry, DramTiming
from repro.memctrl.base import normalize_engine

if TYPE_CHECKING:
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


def _env_count(name: str, default: int, minimum: int) -> int:
    """An integer environment variable (unset or empty: ``default``);
    a malformed value is refused by name."""
    raw = os.environ.get(name) or str(default)
    try:
        value = int(raw)
        if value >= minimum:
            return value
    except ValueError:
        pass
    raise ValueError(f"{name} must be an integer >= {minimum}, got {raw!r}")


def default_scale() -> float:
    """Experiment scale: 1/32 by default, overridable via REPRO_SCALE."""
    return 1.0 / _env_count(SCALE_ENV_VAR, DEFAULT_SCALE_DENOMINATOR, 1)


def default_jobs() -> int:
    """Sweep worker count: REPRO_JOBS, or 1 (serial) when unset.

    ``REPRO_JOBS=0`` asks for one worker per available CPU.
    """
    return resolve_jobs(_env_count(JOBS_ENV_VAR, 1, 0))


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


#: Lower bounds of the int fields that the Hydra design point does not
#: bound itself (``SystemConfig.__post_init__`` builds that point too).
_AT_LEAST = {"trh": MIN_TRH, "mlp": 1, "n_windows": 1, "chunk_lines": 1}


def _check_field(name: str, value: Any) -> int:
    """Refuse a wrong-typed or out-of-bound value for the int field
    ``name`` of :class:`SystemConfig`; return it unchanged."""
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    minimum = _AT_LEAST.get(name)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_trh(trh: Any) -> int:
    """A T_RH every tracker can be built for (>= :data:`MIN_TRH`): the
    check behind ``SystemConfig``, ``with_trh``, a spec's ``trh=`` and
    the CLI's ``--trh``."""
    return _check_field("trh", trh)


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
    #: (Figure 7 uses 2x at 250 and 4x at 125); ``with_trh`` sets it.
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
    #: Replay a recorded trace instead of generating the synthetic
    #: workload: a chunked-trace directory, an ``.npz`` trace, or an
    #: external text trace (``<gap_ns> <R|W> <row_id> [n_lines]``).
    trace_file: Optional[str] = None

    def __post_init__(self) -> None:
        """Refuse a system no cell could run, where it is made. Every
        boundary (a spec's ``trh=``, the CLI, ``GridSpec``, ``POST
        /jobs``) defers to these checks instead of restating them."""
        for spec in fields(self):
            if spec.type == "int":
                _check_field(spec.name, getattr(self, spec.name))
        if not 0 < self.scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        normalize_engine(self.engine)
        # The Hydra design point bounds the GCT/RCC sizing, rcc_ways,
        # tg_fraction, blast_radius and structure_scale.
        self.hydra_config()

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

    def hydra_config(
        self,
        enable_gct: bool = True,
        enable_rcc: bool = True,
        randomize_mapping: bool = False,
    ) -> HydraConfig:
        """The Hydra design point, scaled with the system.

        This is the single derivation of a :class:`HydraConfig` from
        system-level parameters; the ``hydra`` spec builds from it.
        """
        full = HydraConfig(
            geometry=PAPER_GEOMETRY,
            trh=self.trh,
            gct_entries=self.gct_entries_full * self.structure_scale,
            rcc_entries=self.rcc_entries_full * self.structure_scale,
            rcc_ways=self.rcc_ways,
            tg_fraction=self.tg_fraction,
            blast_radius=self.blast_radius,
            enable_gct=enable_gct,
            enable_rcc=enable_rcc,
            randomize_mapping=randomize_mapping,
        )
        if self.scale == 1.0:
            return full
        return full.scaled(self.scale)

    def cra_cache_bytes(self, full_bytes: Optional[int] = None) -> int:
        """CRA metadata cache, scaled, kept to whole 16-way sets."""
        if full_bytes is None:
            full_bytes = self.cra_cache_full_bytes
        scaled = int(full_bytes * self.scale)
        minimum = 16 * 64  # one 16-way set of 64 B lines
        return max(minimum, scaled - scaled % minimum)

    def generator_config(self) -> GeneratorConfig:
        from repro.workloads.synthetic import GeneratorConfig

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

    def with_trh(self, trh: int) -> "SystemConfig":
        """Retarget T_RH, scaling Hydra structures as Figure 7 does.

        This is the one T_RH scaling rule: structures grow by
        ``500 // trh`` (2x at 250, 4x at 125), rounded down to a power
        of two so the GCT stays one.
        """
        ratio = max(1, 500 // check_trh(trh))
        return replace(
            self, trh=trh, structure_scale=1 << (ratio.bit_length() - 1)
        )

    def with_gct_entries(self, gct_entries_full: int) -> "SystemConfig":
        return replace(self, gct_entries_full=gct_entries_full)

    def with_engine(self, engine: str) -> "SystemConfig":
        """The same system run on a different scheduling engine."""
        return replace(self, engine=engine)

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

    def _trace_file_suffix(self) -> str:
        """Key suffix naming a replayed trace file (empty by default).

        Appending it only when set keeps every synthetic-trace
        cache/trace key byte-identical (the golden-parity suite pins
        the strings), so existing result caches stay warm.
        """
        if not self.trace_file:
            return ""
        import zlib

        return f"-tf{zlib.crc32(str(self.trace_file).encode()):08x}"

    def cache_key(self) -> str:
        """Stable identifier for result caching.

        The engine is part of the key, so cached results from one
        engine are never served for another (fast and queued each key
        separately). A replayed ``trace_file`` participates, keyed by
        path — clear the cache if a file's contents change in place.
        """
        return (
            f"s{self.scale:.6f}-t{self.trh}-g{self.gct_entries_full}"
            f"-r{self.rcc_entries_full}x{self.rcc_ways}-f{self.tg_fraction}"
            f"-x{self.structure_scale}-c{self.cra_cache_full_bytes}"
            f"-b{self.blast_radius}-m{self.mlp}-w{self.n_windows}"
            f"-k{self.chunk_lines}-e{self.seed}-n{self.engine}"
            + self._trace_file_suffix()
        )

    def trace_key(self) -> str:
        """Identity of the generated trace (engine/tracker agnostic).

        Only the fields trace construction consumes participate, so
        e.g. fast and queued runs of one system share a
        memoized trace instead of regenerating it per engine.
        """
        return (
            f"s{self.scale:.6f}-w{self.n_windows}"
            f"-k{self.chunk_lines}-e{self.seed}"
            + self._trace_file_suffix()
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
