"""Byte-identical parity of the security-oracle cells.

``oracle_golden.json`` (see ``capture_oracle_golden.py``) pins one
small arena run and one small fuzz campaign: every report field and
every ``arena-oracle`` / ``fuzz-oracle`` manifest line. Attacks reach
the oracle through the attack registry, the ``*_program`` builders and
the arena's spec path; this test is what proves a change to any of
them moves no verdict. A failure here is a behaviour change, not a
golden to regenerate.
"""

import json

import pytest

from tests.analysis.capture_oracle_golden import GOLDEN_PATH, capture


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def recomputed(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("oracle-golden")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(workdir / "cache"))
        patch.delenv("REPRO_MANIFEST", raising=False)
        return capture(workdir)


@pytest.mark.parametrize(
    "part", ["arena", "arena_manifest", "fuzz", "fuzz_manifest"]
)
def test_oracle_outputs_are_byte_identical(golden, recomputed, part):
    assert recomputed[part] == golden[part]


def test_golden_covers_both_battery_paths(golden):
    """The pinned arena exercises both the alias and the spec path."""
    sequences = {
        outcome["sequence"]
        for cell in golden["arena"]["cells"]
        for outcome in cell["oracle"]
    }
    assert sequences == {"single", "many", "random", "half_double"}
    assert golden["fuzz_manifest"]
