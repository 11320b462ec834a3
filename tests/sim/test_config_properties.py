"""A config a grid accepts is a config every cell can be built for
(hypothesis).

``SystemConfig.__post_init__`` owns every field's bound, so a
``GridSpec`` read from JSON either refuses its config at once — a
``ValueError``, or a ``TypeError`` when a field has the wrong type —
or every registered tracker, and the controller of the config's
engine, builds on it. Nothing may pass the grid and fail later in a
worker.
"""

import json
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memctrl import build_controller
from repro.sim import GridSpec, SystemConfig
from repro.trackers.registry import available_trackers, build_tracker

#: Toy scales keep each tracker build cheap.
TOY_SCALES = st.sampled_from([1 / 256, 1 / 1024, 1 / 4096])

#: Values of the wrong JSON type for an int field.
WRONG = st.sampled_from(["500", "", None, [16], 16.0, 503.5])

#: Each field's draws: mostly in range, often just past a bound.
FIELDS = {
    "trh": st.one_of(st.integers(-8, 5000), WRONG),
    "gct_entries_full": st.sampled_from(
        [-8, 0, 3, 1000, 1 << 10, 1 << 14, 1 << 15, 1 << 22, 1 << 23]
    ),
    "rcc_entries_full": st.integers(-2, 1 << 10).map(lambda n: 16 * n + n % 3),
    "rcc_ways": st.one_of(st.sampled_from([1, 2, 3, 8, 16]), st.integers(-2, 64)),
    "tg_fraction": st.one_of(
        st.floats(-0.5, 1.5, allow_nan=False), st.sampled_from(["0.8", None])
    ),
    "structure_scale": st.integers(-1, 9),
    "cra_cache_full_bytes": st.integers(-1024, 1 << 20),
    "blast_radius": st.integers(-2, 6),
    "mlp": st.one_of(st.integers(-2, 64), WRONG),
    "n_windows": st.integers(-1, 3),
    "chunk_lines": st.integers(-1, 64),
    "engine": st.sampled_from(["fast", "queued", "vector", "bogus"]),
}

#: What a JSON value of each annotated field type must be.
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


def _wrong_typed(overrides) -> bool:
    return any(
        not isinstance(overrides[spec.name], _JSON_TYPES[spec.type])
        for spec in fields(SystemConfig)
        if spec.name in overrides
    )


@settings(max_examples=60, deadline=None)
@given(
    scale=TOY_SCALES,
    overrides=st.fixed_dictionaries({}, optional=FIELDS),
)
def test_grid_config_is_refused_or_every_cell_builds(scale, overrides):
    config = {"scale": scale, "n_windows": 1, **overrides}
    text = json.dumps(
        {"trackers": ["baseline", "hydra"], "workloads": ["GUPS"], "config": config}
    )
    try:
        grid = GridSpec.from_json(text)
    except TypeError:
        assert _wrong_typed(overrides), overrides
        return
    except ValueError:
        return
    system = grid.resolved_config()
    for name in available_trackers():
        build_tracker(name, system)
    build_controller(
        system.engine,
        system.geometry,
        system.timing,
        build_tracker("hydra", system),
        blast_radius=system.blast_radius,
    )
