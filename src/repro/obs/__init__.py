"""Observability layer: metrics, per-window series, run manifests.

Three pieces (DESIGN.md §10):

- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket histograms that trackers, engines, and the
  Hydra structures publish into;
- :mod:`repro.obs.recorder` — a per-tracking-window time-series
  recorder driven by the controller's window-reset schedule, enough
  to regenerate Figure 6 (and watch it evolve window by window) from
  a single run;
- :mod:`repro.obs.manifest` — JSON-lines run manifests written by
  sweeps: one provenance record per grid cell.

The governing rule is **zero-cost when off**: observation points are
no-op callables (:func:`repro.obs.metrics.noop`) resolved once at
controller build time, nothing observability-related is serialized
into results or the cache, and the golden-parity suite is
bit-identical with observability on or off. Enable it per run with
``simulate(..., observe=True)``, or everywhere with ``REPRO_OBS=1``.
"""

from __future__ import annotations

import os

#: Environment variable that turns observability on for every run.
OBS_ENV_VAR = "REPRO_OBS"


def obs_enabled() -> bool:
    """True when ``$REPRO_OBS`` asks for observability everywhere."""
    value = os.environ.get(OBS_ENV_VAR, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


from repro.obs.manifest import (  # noqa: E402
    MANIFEST_ENV_VAR,
    MANIFEST_SCHEMA_VERSION,
    ArenaOracleRecord,
    ManifestRecord,
    ManifestWriter,
    make_record,
    read_records,
    resolve_manifest_path,
    summarize_manifest,
)
from repro.obs.metrics import (  # noqa: E402
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    noop,
)
from repro.obs.recorder import (  # noqa: E402
    RunObservability,
    WindowSample,
    WindowSeries,
    WindowSeriesRecorder,
)


class Observation:
    """A live observation of one controller run.

    Created by :func:`observe_controller` before the run; call
    :meth:`finalize` after it to collect end-of-run metrics and close
    the window series.
    """

    def __init__(
        self, controller, registry: MetricsRegistry, recorder: WindowSeriesRecorder
    ) -> None:
        self.controller = controller
        self.registry = registry
        self.recorder = recorder

    def finalize(self, end_ns: float) -> RunObservability:
        self.controller.publish_metrics(self.registry)
        self.controller.tracker.publish_metrics(self.registry)
        return RunObservability(
            series=self.recorder.finalize(end_ns),
            metrics=self.registry.collect(),
        )


def observe_controller(controller) -> Observation:
    """Wire a fresh registry + window recorder into a controller.

    Must run before the trace does: the recorder primes its baseline
    from the controller's and tracker's zeroed counters.
    """
    registry = MetricsRegistry()
    recorder = WindowSeriesRecorder(period_ns=controller.window_period_ns)
    controller.enable_observability(recorder, registry)
    return Observation(controller, registry, recorder)


__all__ = [
    "ArenaOracleRecord",
    "Counter",
    "Gauge",
    "Histogram",
    "MANIFEST_ENV_VAR",
    "MANIFEST_SCHEMA_VERSION",
    "ManifestRecord",
    "ManifestWriter",
    "MetricsRegistry",
    "OBS_ENV_VAR",
    "Observation",
    "RunObservability",
    "WindowSample",
    "WindowSeries",
    "WindowSeriesRecorder",
    "make_record",
    "noop",
    "obs_enabled",
    "observe_controller",
    "read_records",
    "resolve_manifest_path",
    "summarize_manifest",
]
