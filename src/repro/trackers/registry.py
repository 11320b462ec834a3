"""Declarative tracker registry and spec-string configuration.

Every tracker studied by the reproduction registers itself here with a
name and a typed parameter schema, and is constructed from a shared
:class:`TrackerContext` — the slice of a system configuration a
tracker is allowed to see (geometry, timing, T_RH, scale, and the
paper's design-point knobs). Anywhere the simulation stack accepts a
tracker name, it equally accepts a **spec string**::

    hydra
    hydra@trh=1000,rcc_kb=28
    graphene@entries_per_bank=4096
    cra@cache_kb=128

Spec strings stay plain picklable strings, so parallel sweeps get
parameter sweeps for free: a spec is the unit of work shipped to pool
workers and hashed into cache keys.

Registering a new tracker takes ~10 lines in its own module::

    @register_tracker(
        "mytracker",
        summary="one-line description for `repro list-trackers`",
        params={"knob": Param(int, default=8, help="what it does")},
    )
    def _mytracker_from_context(ctx: TrackerContext, knob: int = 8):
        return MyTracker(ctx.geometry, trh=ctx.trh, knob=knob)

The parameter ``trh`` is universal: for any tracker,
``name@trh=N`` retargets the RowHammer threshold exactly like
``SystemConfig.with_trh(N)`` (including the Figure-7 structure-scaling
policy), so spec-built trackers match SystemConfig-built ones
bit-for-bit.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.dram.timing import (
    PAPER_GEOMETRY,
    PAPER_TIMING,
    DramGeometry,
    DramTiming,
)
from repro.interfaces import ActivationTracker, NullTracker
from repro.memctrl.base import normalize_engine

#: Modules whose import populates the registry: every built-in tracker
#: registers in one of these, named here one by one (the package
#: ``__init__`` imports none of them). Imported on the first registry
#: query, so the registry module stays a leaf and cannot take part in
#: import cycles.
_BUILTIN_MODULES = tuple(
    f"repro.trackers.{name}"
    for name in (
        "cat", "comet", "cra", "dcbf", "graphene", "insecure", "mint",
        "mithril", "ocpr", "para", "ptmp", "start", "twice",
    )
) + ("repro.core.hydra",)

#: Bytes per RCC entry (valid + tag + SRRIP + counter — Table 4).
RCC_ENTRY_BYTES = 3


# ----------------------------------------------------------------------
# Construction context
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrackerContext:
    """Everything a tracker builder may derive its sizing from.

    Mirrors the tracker-relevant slice of
    :class:`~repro.sim.config.SystemConfig` (which builds one via
    ``tracker_context()``): the scaled geometry/timing actually
    simulated, plus the full-scale design-point parameters the scaling
    policy starts from.
    """

    geometry: DramGeometry = PAPER_GEOMETRY
    timing: DramTiming = PAPER_TIMING
    trh: int = 500
    scale: float = 1.0
    gct_entries_full: int = 32768
    rcc_entries_full: int = 8192
    rcc_ways: int = 16
    tg_fraction: float = 0.80
    structure_scale: int = 1
    cra_cache_full_bytes: int = 64 * 1024
    blast_radius: int = 2

    def with_trh(
        self, trh: int, structure_scale: Optional[int] = None
    ) -> "TrackerContext":
        """Retarget T_RH, scaling structures as Figure 7 does."""
        if structure_scale is None:
            structure_scale = max(1, 500 // trh)
        return replace(self, trh=trh, structure_scale=structure_scale)

    def hydra_config(
        self,
        enable_gct: bool = True,
        enable_rcc: bool = True,
        randomize_mapping: bool = False,
    ):
        """The Hydra design point, scaled with the system.

        This is the single derivation of a
        :class:`~repro.core.config.HydraConfig` from system-level
        parameters; ``SystemConfig.hydra_config`` delegates here.
        """
        # Imported lazily: repro.core imports the trackers package, so
        # a module-level import here would be circular.
        from repro.core.config import HydraConfig

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


# ----------------------------------------------------------------------
# Registry entries
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One typed, documented tracker parameter.

    ``default=None`` means the value is derived from the
    :class:`TrackerContext` when not given explicitly. ``check``, when
    set, validates the coerced value at parse time and returns it
    (possibly normalized); its ``ValueError`` is reported with the
    spec for context.
    """

    type: type
    default: Any = None
    help: str = ""
    check: Optional[Callable[[Any], Any]] = None


#: Security classes a tracker may declare. The arena's oracle verdicts
#: are interpreted against this claim:
#:
#: - ``deterministic``: provably mitigates every row at or before the
#:   tracking threshold — the oracle must report zero violations on
#:   *any* sequence, adversarial ones included.
#: - ``probabilistic``: secure with high probability per window
#:   (PARA-style sampling); individual oracle runs may show violations
#:   at very low thresholds without contradicting the design.
#: - ``rate-control``: mitigates by *delaying* activations rather than
#:   refreshing victims, so the activation-count oracle (which models
#:   no timing) cannot certify it; judged on slowdown/storage only.
#: - ``insecure``: known-breakable designs kept as negative controls —
#:   the oracle is expected to find violations.
SECURITY_CLASSES = (
    "deterministic",
    "probabilistic",
    "rate-control",
    "insecure",
)


@dataclass(frozen=True)
class TrackerInfo:
    """One registered tracker: its builder and parameter schema."""

    name: str
    builder: Callable[..., ActivationTracker]
    params: Mapping[str, Param] = field(default_factory=dict)
    summary: str = ""
    #: One of :data:`SECURITY_CLASSES` (the design's *claim*, which
    #: the arena's oracle verdicts are checked against).
    security_class: str = "deterministic"


_REGISTRY: Dict[str, TrackerInfo] = {}


def _at_least(value: int, minimum: int) -> int:
    if value < minimum:
        raise ValueError(f"must be >= {minimum}, got {value}")
    return value


#: Parameters accepted by every tracker, resolved against the context
#: before the tracker-specific builder runs.
UNIVERSAL_PARAMS: Dict[str, Param] = {
    "trh": Param(
        int,
        check=lambda trh: _at_least(trh, 1),
        help="RowHammer threshold (applies SystemConfig.with_trh's policy)",
    ),
    "engine": Param(
        str,
        check=normalize_engine,
        help="memory-controller engine the simulation runs on"
        " (overrides SystemConfig.engine)",
    ),
    "stream_chunk": Param(
        int,
        check=lambda chunk: _at_least(chunk, 0),
        help="trace-streaming chunk size in requests (overrides"
        " SystemConfig.stream_chunk; 0 = materialize the trace in RAM)",
    ),
}


def register_tracker(
    name: str,
    *,
    params: Optional[Mapping[str, Param]] = None,
    summary: str = "",
    security_class: str = "deterministic",
) -> Callable[[Callable[..., ActivationTracker]], Callable[..., ActivationTracker]]:
    """Class/function decorator adding one tracker to the registry.

    The decorated callable receives a :class:`TrackerContext` plus any
    spec parameters (already coerced to their declared types) as
    keyword arguments, and returns the constructed tracker.
    """
    schema = dict(params or {})
    for reserved in UNIVERSAL_PARAMS:
        if reserved in schema:
            raise ValueError(
                f"parameter {reserved!r} is universal and cannot be redeclared"
            )
    if security_class not in SECURITY_CLASSES:
        raise ValueError(
            f"unknown security class {security_class!r}; expected one of "
            + ", ".join(SECURITY_CLASSES)
        )

    def decorate(builder: Callable[..., ActivationTracker]):
        if name in _REGISTRY:
            raise ValueError(f"tracker {name!r} registered twice")
        _REGISTRY[name] = TrackerInfo(
            name=name,
            builder=builder,
            params=schema,
            summary=summary,
            security_class=security_class,
        )
        return builder

    return decorate


@functools.lru_cache(maxsize=None)
def _ensure_registered() -> None:
    """Import every registering module, once: every spec parse comes
    through here, so a later call is one cache lookup."""
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def available_trackers() -> List[str]:
    """Sorted names of every registered tracker."""
    _ensure_registered()
    return sorted(_REGISTRY)


def tracker_info(name: str) -> TrackerInfo:
    """Registry entry for ``name`` (a bare name, not a spec)."""
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown tracker {name!r}; available: "
            + ", ".join(sorted(_REGISTRY))
        ) from None


# ----------------------------------------------------------------------
# Spec strings
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrackerSpec:
    """A parsed ``name@key=value,...`` spec (params coerced + sorted)."""

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def canonical(self) -> str:
        """Round-trippable canonical string form of this spec."""
        if not self.params:
            return self.name
        rendered = ",".join(
            f"{key}={_format_value(value)}" for key, value in self.params
        )
        return f"{self.name}@{rendered}"


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


#: Public aliases: the ``name@key=value,...`` grammar is shared with
#: the attack-program registry (:mod:`repro.attacks.registry`), which
#: reuses these helpers so both spec languages parse and render
#: identically.
format_param_value = _format_value


def parse_param_items(
    spec: str, owner: str, rest: str, schema: Mapping[str, Param]
) -> Dict[str, Any]:
    """Parse the ``key=value,...`` tail of a spec against a schema.

    ``owner`` names the registry entry (for error messages). Raises
    ``ValueError`` on malformed items, unknown or duplicate keys, and
    type/choice mismatches — spec errors must be self-explanatory
    because specs travel through CLIs, environment files, and sweep
    grids.
    """
    params: Dict[str, Any] = {}
    for item in rest.split(","):
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(
                f"malformed parameter {item.strip()!r} in spec {spec!r}"
                " (expected key=value)"
            )
        if key not in schema:
            raise ValueError(
                f"{owner!r} has no parameter {key!r}; parameters: "
                + ", ".join(sorted(schema))
            )
        if key in params:
            raise ValueError(f"duplicate parameter {key!r} in spec {spec!r}")
        params[key] = _coerce(spec, key, schema[key], raw)
    return params


def _coerce(spec: str, name: str, param: Param, raw: str) -> Any:
    raw = raw.strip()
    if param.type is bool:
        lowered = raw.lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ValueError(
            f"bad value for {name!r} in spec {spec!r}: {raw!r} is not a"
            " boolean (use true/false)"
        )
    try:
        value = param.type(raw)
    except ValueError:
        raise ValueError(
            f"bad value for {name!r} in spec {spec!r}: {raw!r} is not"
            f" {param.type.__name__}"
        ) from None
    if param.check is not None:
        try:
            value = param.check(value)
        except ValueError as exc:
            raise ValueError(
                f"bad value for {name!r} in spec {spec!r}: {exc}"
            ) from None
    return value


def parse_spec(spec: Union[str, TrackerSpec]) -> TrackerSpec:
    """Parse and validate a spec string against the registry.

    Raises ``ValueError`` naming the unknown tracker (with the list of
    registered ones) or the unknown/ill-typed parameter (with the
    tracker's schema) — spec errors must be self-explanatory because
    specs travel through CLIs, environment files, and sweep grids.
    """
    if isinstance(spec, TrackerSpec):
        return spec
    name, _, rest = spec.partition("@")
    name = name.strip()
    info = tracker_info(name)
    if not rest.strip():
        if "@" in spec:
            raise ValueError(f"empty parameter list in spec {spec!r}")
        return TrackerSpec(name=name)
    schema = {**UNIVERSAL_PARAMS, **info.params}
    params = parse_param_items(spec, f"tracker {name}", rest, schema)
    return TrackerSpec(name=name, params=tuple(sorted(params.items())))


def canonical_spec(spec: Union[str, TrackerSpec]) -> str:
    """Normalized string form (stable across spacing/ordering)."""
    return parse_spec(spec).canonical()


def spec_engine(spec: Union[str, TrackerSpec]) -> Optional[str]:
    """The ``engine=`` override a spec carries, if any.

    ``engine`` is a universal parameter but configures the *simulation*
    (which memory-controller engine runs the trace) rather than the
    tracker, so the simulator extracts it here and ``build_tracker``
    ignores it.
    """
    return dict(parse_spec(spec).params).get("engine")


def spec_stream_chunk(spec: Union[str, TrackerSpec]) -> Optional[int]:
    """The ``stream_chunk=`` override a spec carries, if any.

    Like ``engine``, ``stream_chunk`` is a universal parameter that
    configures the *simulation* (how the trace is fed to the engine)
    rather than the tracker, so the simulator extracts it here and
    ``build_tracker`` ignores it.
    """
    return dict(parse_spec(spec).params).get("stream_chunk")


def build_tracker(
    spec: Union[str, TrackerSpec], context: TrackerContext
) -> ActivationTracker:
    """Construct the tracker a spec describes for the given context."""
    parsed = parse_spec(spec)
    info = tracker_info(parsed.name)
    params = dict(parsed.params)
    trh = params.pop("trh", None)
    if trh is not None:
        context = context.with_trh(trh)
    params.pop("engine", None)  # simulation-level; see spec_engine()
    params.pop("stream_chunk", None)  # simulation-level; spec_stream_chunk()
    return info.builder(context, **params)


@register_tracker(
    "baseline",
    summary="no tracking, no mitigation (insecure)",
    security_class="insecure",
)
def _baseline_from_context(ctx: TrackerContext) -> NullTracker:
    return NullTracker()
