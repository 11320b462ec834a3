"""Properties of the spec grammar and of grids (hypothesis).

A spec may be spelt many ways: any parameter order, spaces around
``@``, ``=`` and ``,``, and several spellings of a boolean. Every
spelling must canonicalize to one string, keep its simulation-level
parameter (``engine``) and share one cache key. A
grid must round-trip through JSON and keep its key under respelling.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memctrl import ENGINES
from repro.sim import GridSpec, SystemConfig, cell_key
from repro.trackers.registry import (
    MIN_TRH,
    available_trackers,
    canonical_spec,
    format_param_value,
    spec_engine,
    tracker_info,
)
from repro.workloads.characteristics import all_names

CONFIG = SystemConfig(scale=1 / 256, n_windows=1)

#: Configs a grid may carry, including the non-default axes.
CONFIGS = [
    None,
    CONFIG,
    CONFIG.with_engine("queued"),
    CONFIG.with_trh(125),
]

#: Spellings the parser accepts for each boolean.
BOOL_SPELLINGS = {
    True: ("true", "yes", "1", "on", "True", "YES"),
    False: ("false", "no", "0", "off", "False", "OFF"),
}

#: Valid values of the parameters every tracker accepts.
UNIVERSAL_VALUES = {
    "engine": st.sampled_from(ENGINES),
    "trh": st.integers(min_value=MIN_TRH, max_value=200_000),
}

SPACE = st.sampled_from(["", " ", "  "])


def _values(param):
    if param.type is bool:
        return st.booleans()
    if param.type is int:
        low, high = param.bounds or (0, 10**9)
        return st.integers(min_value=low, max_value=high)
    assert param.type is float, param
    return st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def spellings(draw):
    """One registered tracker's spec, spelt plainly and respelt."""
    name = draw(st.sampled_from(available_trackers()))
    schema = {key: _values(p) for key, p in tracker_info(name).params.items()}
    schema.update(UNIVERSAL_VALUES)
    keys = draw(st.lists(st.sampled_from(sorted(schema)), unique=True))
    params = {key: draw(schema[key]) for key in keys}
    if not params:
        return name, f"{draw(SPACE)}{name}{draw(SPACE)}"
    plain = f"{name}@" + ",".join(
        f"{key}={format_param_value(value)}" for key, value in params.items()
    )

    def spell(value):
        if isinstance(value, bool):
            return draw(st.sampled_from(BOOL_SPELLINGS[value]))
        return format_param_value(value)

    items = [
        f"{draw(SPACE)}{key}{draw(SPACE)}={draw(SPACE)}"
        f"{spell(params[key])}{draw(SPACE)}"
        for key in draw(st.permutations(keys))
    ]
    respelt = f"{name}{draw(SPACE)}@{draw(SPACE)}" + ",".join(items)
    return plain, respelt


@settings(max_examples=150, deadline=None)
@given(spellings())
def test_respelt_spec_is_one_spec(pair):
    plain, respelt = pair
    canonical = canonical_spec(plain)
    assert canonical_spec(respelt) == canonical
    assert canonical_spec(canonical) == canonical
    for spelling in (plain, respelt):
        assert spec_engine(spelling) == spec_engine(canonical)
        assert cell_key(CONFIG, spelling, "xz") == cell_key(
            CONFIG, canonical, "xz"
        )


@settings(max_examples=50, deadline=None)
@given(
    st.lists(spellings(), min_size=1, max_size=4),
    st.lists(st.sampled_from(all_names()), unique=True, max_size=3),
    st.sampled_from(CONFIGS),
)
def test_grid_round_trips_and_keys_by_meaning(pairs, workloads, config):
    plain, respelt = (
        GridSpec(
            trackers=tuple(pair[side] for pair in pairs),
            workloads=tuple(workloads),
            config=config,
        )
        for side in (0, 1)
    )
    for grid in (plain, respelt):
        assert GridSpec.from_json(grid.to_json()) == grid
    assert respelt.grid_key() == plain.grid_key()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(spellings(), min_size=1, max_size=4),
    st.lists(st.sampled_from(all_names()), unique=True, max_size=3),
    st.sampled_from([config for config in CONFIGS if config is not None]),
    st.sampled_from((0, 1)),
)
def test_grid_cell_keys_are_cell_keys(pairs, workloads, config, side):
    """``GridSpec.cells`` keys each column once, yet every key equals
    :func:`cell_key` of its cell, whatever the spelling."""
    grid = GridSpec(
        trackers=tuple(pair[side] for pair in pairs),
        workloads=tuple(workloads),
        config=config,
    )
    cells = list(grid.cells())
    assert len(cells) == grid.n_cells()
    for cell in cells:
        assert cell.key == cell_key(config, cell.tracker, cell.workload)
