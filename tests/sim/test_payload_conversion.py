"""The RunResult <-> payload seam every cache hit crosses.

``RunResult.from_dict`` builds results without ``__init__``'s keyword
binding and ``to_dict`` copies ``extra`` without ``copy.deepcopy``.
These tests pin that both still mean what the plain dataclass calls
mean: equal results, equal payloads, the same per-instance memory, and
payloads that never alias the result they came from.
"""

import copy
import json
import tracemalloc
from pathlib import Path

import pytest

from repro.service.worker import validated_entry
from repro.sim.cache import ResultCache
from repro.sim.results import PAYLOAD_FIELDS, RunResult

GOLDEN = Path(__file__).with_name("golden_runs.json")

#: The fields a payload cannot omit (everything without a default).
REQUIRED = tuple(name for name in PAYLOAD_FIELDS if name not in ("engine", "extra"))


def _golden_payloads():
    return json.loads(GOLDEN.read_text())["runs"]


def _exact_payload():
    return {
        "workload": "xz",
        "tracker": "hydra",
        "end_time_ns": 1.25e6,
        "requests": 1000,
        "average_latency_ns": 50.5,
        "demand_line_transfers": 2000,
        "meta_accesses": 30,
        "meta_line_transfers": 31,
        "victim_refreshes": 4,
        "mitigations": 2,
        "window_resets": 1,
        "activations": 900,
        "bus_utilization": 0.5,
        "dram_power_w": 3.3,
        "engine": "queued",
        "extra": {
            "distribution": {"gct_only": 0.9, "rcc_hit": 0.07, "rct_access": 0.03},
            "group_inits": 12,
            "total_delay_ns": 0.0,
        },
    }


def _payload_shapes():
    exact = _exact_payload()
    pre_engine = {k: v for k, v in exact.items() if k not in ("engine", "extra")}
    no_extra = {k: v for k, v in exact.items() if k != "extra"}
    unknown = dict(exact, added_in_schema_3={"future": [1, 2]})
    reordered = dict(reversed(list(exact.items())))
    shapes = [
        ("exact", exact),
        ("pre-engine", pre_engine),
        ("no-extra", no_extra),
        ("unknown-key", unknown),
        ("reordered", reordered),
    ]
    shapes += [(f"golden-{name}", payload) for name, payload in _golden_payloads().items()]
    return shapes


SHAPES = _payload_shapes()


def _init_built(payload):
    """What ``from_dict`` must equal: ``__init__`` over the known keys."""
    return RunResult(**{k: v for k, v in payload.items() if k in PAYLOAD_FIELDS})


def _deepcopy_to_dict(result):
    """``to_dict`` as a plain deep copy computes it."""
    data = {name: getattr(result, name) for name in PAYLOAD_FIELDS}
    data["extra"] = copy.deepcopy(result.extra)
    return data


@pytest.mark.parametrize("name,payload", SHAPES, ids=[name for name, _ in SHAPES])
class TestFromDictEqualsInit:
    def test_result_equals_init_built(self, name, payload):
        built = RunResult.from_dict(payload)
        expected = _init_built(payload)
        assert built == expected
        assert built.observability is None
        assert type(built) is RunResult

    def test_attributes_set_in_field_order(self, name, payload):
        # The same insertion order as __init__ keeps the instance on
        # the class's shared attribute-key table.
        built = vars(RunResult.from_dict(payload))
        assert list(built) == list(vars(_init_built(payload)))

    def test_round_trip_payload_unchanged(self, name, payload):
        result = RunResult.from_dict(payload)
        dumped = result.to_dict()
        assert dumped == _deepcopy_to_dict(_init_built(payload))
        assert json.dumps(dumped) == json.dumps(_deepcopy_to_dict(_init_built(payload)))
        assert list(dumped) == list(PAYLOAD_FIELDS)


class TestMissingRequiredField:
    @pytest.mark.parametrize("field", REQUIRED)
    def test_missing_field_is_a_type_error(self, field):
        payload = _exact_payload()
        del payload[field]
        with pytest.raises(TypeError, match=field):
            RunResult.from_dict(payload)

    def test_validated_entry_evicts_it(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = _exact_payload()
        del payload["requests"]
        cache.store("k" * 24, payload)
        assert validated_entry(cache, "k" * 24) is None
        assert not cache.path_for("k" * 24).exists()
        assert cache.evictions == 1

    def test_validated_entry_serves_a_good_one(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("g" * 24, _exact_payload())
        payload, result = validated_entry(cache, "g" * 24)
        assert payload == _exact_payload()
        assert result == _init_built(_exact_payload())
        assert cache.evictions == 0


def _retained_bytes(build, count=400):
    """Bytes still allocated after building ``count`` results from
    pre-built payloads (the payloads themselves are not counted)."""
    payloads = [_exact_payload() for _ in range(count)]
    tracemalloc.start()
    try:
        kept = [build(payload) for payload in payloads]
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept) == count
    return retained


def _bulk_update_build(payload):
    """The tempting shortcut that gives every instance its own dict."""
    result = object.__new__(RunResult)
    result.__dict__.update(payload)
    result.observability = None
    return result


class TestInstanceMemory:
    def test_from_dict_costs_no_more_than_init(self):
        init = _retained_bytes(lambda payload: RunResult(**payload))
        built = _retained_bytes(RunResult.from_dict)
        assert built <= init * 1.05

    def test_the_probe_catches_a_bulk_dict_update(self):
        # The bound above is tight enough to refuse a __dict__.update
        # build, which retains about twice as much per instance.
        init = _retained_bytes(lambda payload: RunResult(**payload))
        assert _retained_bytes(_bulk_update_build) > init * 1.05


def _nested_extra_result():
    payload = _exact_payload()
    payload["extra"]["series"] = [1, [2, 3], {"deep": [4]}]
    return RunResult.from_dict(payload)


class TestToDictCopiesExtra:
    def test_mutating_nested_dict_leaves_result(self):
        result = _nested_extra_result()
        before = copy.deepcopy(result.extra)
        data = result.to_dict()
        data["extra"]["distribution"]["gct_only"] = -1.0
        data["extra"]["group_inits"] = -1
        data["extra"]["added"] = True
        assert result.extra == before

    def test_mutating_nested_list_leaves_result(self):
        result = _nested_extra_result()
        before = copy.deepcopy(result.extra)
        data = result.to_dict()
        data["extra"]["series"].append(5)
        data["extra"]["series"][1].append(6)
        data["extra"]["series"][2]["deep"].append(7)
        assert result.extra == before

    def test_no_container_is_shared(self):
        result = _nested_extra_result()
        data = result.to_dict()
        assert data["extra"] is not result.extra
        assert data["extra"]["distribution"] is not result.extra["distribution"]
        assert data["extra"]["series"] is not result.extra["series"]
        assert data["extra"]["series"][1] is not result.extra["series"][1]

    @pytest.mark.parametrize(
        "payload", list(_golden_payloads().values()), ids=list(_golden_payloads())
    )
    def test_copy_equals_deepcopy_for_every_tracker(self, payload):
        result = RunResult.from_dict(payload)
        assert result.to_dict()["extra"] == copy.deepcopy(result.extra)
        assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
            _deepcopy_to_dict(result), sort_keys=True
        )
