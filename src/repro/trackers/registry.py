"""Declarative spec registries: trackers here, attacks beside them.

Every tracker studied by the reproduction registers itself here with a
name and a typed parameter schema, and is constructed from the
:class:`~repro.sim.config.SystemConfig` it runs in (geometry, timing,
T_RH, scale, and the paper's design-point knobs). Anywhere the
simulation stack accepts a tracker name, it equally accepts a **spec
string**::

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
    def _mytracker_from_config(ctx: SystemConfig, knob: int = 8):
        return MyTracker(ctx.geometry, trh=ctx.trh, knob=knob)

The parameter ``trh`` is universal: for any tracker, ``name@trh=N``
(N >= :data:`MIN_TRH`) builds the tracker from
``SystemConfig.with_trh(N)``, the one T_RH scaling rule, so spec-built
trackers match SystemConfig-built ones bit-for-bit.

The grammar, the registration and the lookup live once, in
:class:`SpecRegistry`; :data:`TRACKERS` is its tracker instance and
:mod:`repro.attacks.registry` holds the attack one. The module-level
names (``register_tracker``, ``parse_spec``, ...) are that instance's
methods.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.config import MIN_TRH  # noqa: F401  (re-exported)
from repro.dram.timing import PAPER_GEOMETRY
from repro.interfaces import ActivationTracker, NullTracker
from repro.memctrl.base import normalize_engine
from repro.sim.config import SystemConfig, check_trh

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

#: ``Param.bounds`` of sizes: no tracker needs more entries than the
#: full-scale system has rows (per bank, in all, or as 3-byte counters
#: in KB), so a mistyped size cannot allocate gigabytes when built.
BANK_SIZE = (1, PAPER_GEOMETRY.rows_per_bank)
SYSTEM_SIZE = (1, PAPER_GEOMETRY.total_rows)
KB_SIZE = (1, PAPER_GEOMETRY.total_rows * RCC_ENTRY_BYTES // 1024)

# ----------------------------------------------------------------------
# Registry entries
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One typed, documented spec parameter.

    ``default=None`` means the value is derived from the system the
    entry is built for when not given explicitly. ``bounds`` is the
    inclusive range of the coerced value; ``check`` then validates it
    and returns it (possibly normalized). Both are applied at parse
    time, their ``ValueError`` reported with the spec for context.
    """

    type: type
    default: Any = None
    help: str = ""
    check: Optional[Callable[[Any], Any]] = None
    bounds: Optional[Tuple[int, int]] = None


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
class SpecInfo:
    """One registered entry: its builder and parameter schema."""

    name: str
    builder: Callable[..., Any]
    params: Mapping[str, Param] = field(default_factory=dict)
    summary: str = ""
    #: Trackers only: one of :data:`SECURITY_CLASSES` (the design's
    #: *claim*, which the arena's oracle verdicts are checked against).
    security_class: Optional[str] = None


@dataclass(frozen=True)
class Spec:
    """A parsed ``name@key=value,...`` spec (params coerced + sorted)."""

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def canonical(self) -> str:
        """Round-trippable canonical string form of this spec."""
        if not self.params:
            return self.name
        rendered = ",".join(
            f"{key}={format_param_value(value)}" for key, value in self.params
        )
        return f"{self.name}@{rendered}"


def format_param_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


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
    if param.bounds is not None:
        low, high = param.bounds
        if not low <= value <= high:
            raise ValueError(
                f"bad value for {name!r} in spec {spec!r}: {value} is not"
                f" in [{low}, {high}]"
            )
    if param.check is not None:
        try:
            value = param.check(value)
        except ValueError as exc:
            raise ValueError(
                f"bad value for {name!r} in spec {spec!r}: {exc}"
            ) from None
    return value


class SpecRegistry:
    """Named builders with typed schemas, addressed by spec strings.

    ``kind`` names the entries in messages ("unknown tracker 'x'").
    ``modules`` are imported on the first query; importing them
    registers the built-in entries. ``universal`` parameters are
    accepted by every entry on top of its own schema, and no entry
    may redeclare one.
    """

    def __init__(
        self,
        kind: str,
        modules: Tuple[str, ...],
        universal: Optional[Mapping[str, Param]] = None,
    ) -> None:
        self.kind = kind
        self.universal: Dict[str, Param] = dict(universal or {})
        self._modules = modules
        self._entries: Dict[str, SpecInfo] = {}
        self._loaded = False

    def register(
        self,
        name: str,
        *,
        params: Optional[Mapping[str, Param]] = None,
        summary: str = "",
        security_class: Optional[str] = None,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator adding one builder to the registry.

        The decorated callable receives the system it builds for plus
        any spec parameters (already coerced to their declared types)
        as keyword arguments.
        """
        schema = dict(params or {})
        for reserved in self.universal:
            if reserved in schema:
                raise ValueError(
                    f"parameter {reserved!r} is universal and cannot be"
                    " redeclared"
                )

        def decorate(builder: Callable[..., Any]) -> Callable[..., Any]:
            if name in self._entries:
                raise ValueError(f"{self.kind} {name!r} registered twice")
            self._entries[name] = SpecInfo(
                name=name,
                builder=builder,
                params=schema,
                summary=summary,
                security_class=security_class,
            )
            return builder

        return decorate

    def _ensure_registered(self) -> None:
        """Import every registering module, once: every spec parse
        comes through here, so a later call is one attribute test."""
        if not self._loaded:
            for module in self._modules:
                importlib.import_module(module)
            self._loaded = True

    def available(self) -> List[str]:
        """Sorted names of every registered entry."""
        self._ensure_registered()
        return sorted(self._entries)

    def info(self, name: str) -> SpecInfo:
        """Registry entry for ``name`` (a bare name, not a spec)."""
        self._ensure_registered()
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; available: "
                + ", ".join(sorted(self._entries))
            ) from None

    def parse(self, spec: Union[str, Spec]) -> Spec:
        """Parse and validate a spec string against the registry.

        Raises ``ValueError`` naming the unknown entry (with the list
        of registered ones) or the unknown/ill-typed parameter (with
        the entry's schema).
        """
        if isinstance(spec, Spec):
            return spec
        name, _, rest = spec.partition("@")
        name = name.strip()
        info = self.info(name)
        if not rest.strip():
            if "@" in spec:
                raise ValueError(f"empty parameter list in spec {spec!r}")
            return Spec(name=name)
        schema = {**self.universal, **info.params}
        params = parse_param_items(spec, f"{self.kind} {name}", rest, schema)
        return Spec(name=name, params=tuple(sorted(params.items())))

    def canonical(self, spec: Union[str, Spec]) -> str:
        """Normalized string form (stable across spacing/ordering)."""
        return self.parse(spec).canonical()


#: Parameters accepted by every tracker, resolved against the system
#: before the tracker-specific builder runs.
UNIVERSAL_PARAMS: Dict[str, Param] = {
    "trh": Param(
        int,
        check=check_trh,
        help="RowHammer threshold (builds from SystemConfig.with_trh)",
    ),
    "engine": Param(
        str,
        check=normalize_engine,
        help="memory-controller engine the simulation runs on"
        " (overrides SystemConfig.engine)",
    ),
}

#: The tracker registry.
TRACKERS = SpecRegistry("tracker", _BUILTIN_MODULES, UNIVERSAL_PARAMS)

TrackerInfo = SpecInfo
TrackerSpec = Spec
available_trackers = TRACKERS.available
tracker_info = TRACKERS.info
parse_spec = TRACKERS.parse
canonical_spec = TRACKERS.canonical


def register_tracker(
    name: str,
    *,
    params: Optional[Mapping[str, Param]] = None,
    summary: str = "",
    security_class: str = "deterministic",
) -> Callable[[Callable[..., ActivationTracker]], Callable[..., ActivationTracker]]:
    """:meth:`SpecRegistry.register` for trackers, which declare one of
    :data:`SECURITY_CLASSES`."""
    if security_class not in SECURITY_CLASSES:
        raise ValueError(
            f"unknown security class {security_class!r}; expected one of "
            + ", ".join(SECURITY_CLASSES)
        )
    return TRACKERS.register(
        name, params=params, summary=summary, security_class=security_class
    )


def spec_engine(spec: Union[str, Spec]) -> Optional[str]:
    """The ``engine=`` override a spec carries, if any.

    ``engine`` is a universal parameter but configures the *simulation*
    (which memory-controller engine runs the trace) rather than the
    tracker, so the simulator extracts it here and ``build_tracker``
    ignores it.
    """
    return dict(parse_spec(spec).params).get("engine")


def build_tracker(
    spec: Union[str, Spec], config: SystemConfig
) -> ActivationTracker:
    """Construct the tracker a spec describes for the given system."""
    parsed = parse_spec(spec)
    info = tracker_info(parsed.name)
    params = dict(parsed.params)
    trh = params.pop("trh", None)
    if trh is not None:
        config = config.with_trh(trh)
    params.pop("engine", None)  # simulation-level; see spec_engine()
    return info.builder(config, **params)


@register_tracker(
    "baseline",
    summary="no tracking, no mitigation (insecure)",
    security_class="insecure",
)
def _baseline_from_context(ctx: SystemConfig) -> NullTracker:
    return NullTracker()
