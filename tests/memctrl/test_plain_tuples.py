"""Plain ``(gap_ns, row_id, n_lines, is_write)`` tuples at the engine
boundary.

An iterable without ``resolved_stream`` is resolved one request at a
time by ``memctrl.base._resolve``. It must refuse what a recorded
trace refuses (``check_requests``), with the same ``ValueError`` text,
on both engines.
"""

import math

import numpy as np
import pytest

from repro.memctrl import ENGINES, build_controller
from repro.sim.config import SystemConfig
from repro.workloads.trace import check_requests

CONFIG = SystemConfig(scale=1 / 512, n_windows=1)
GOOD = (5.0, 3, 1, False)

BAD = {
    "negative gap": (-1.0, 3, 1, False),
    "NaN gap": (math.nan, 3, 1, False),
    "infinite gap": (math.inf, 3, 1, False),
    "negative row": (5.0, -1, 1, False),
    "empty burst": (5.0, 3, 0, False),
}


def _controller(engine):
    return build_controller(engine, CONFIG.geometry, CONFIG.timing)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("rule", sorted(BAD))
def test_bad_plain_tuple_is_refused_like_a_recorded_trace(engine, rule):
    requests = [GOOD, GOOD, BAD[rule], GOOD]
    gaps, rows, lines, _ = (np.array(column) for column in zip(*requests))
    with pytest.raises(ValueError) as recorded:
        check_requests(gaps, rows, lines, "trace")
    assert "request 2:" in str(recorded.value)
    with pytest.raises(ValueError) as plain:
        _controller(engine).run_trace(requests)
    assert str(plain.value) == str(recorded.value)


@pytest.mark.parametrize("engine", ENGINES)
def test_refusal_names_the_trace(engine):
    class Named:
        name = "recorded-attack"

        def __iter__(self):
            return iter([GOOD, BAD["negative row"]])

    with pytest.raises(ValueError, match=r"^recorded-attack: request 1: row_id"):
        _controller(engine).run_trace(Named())

