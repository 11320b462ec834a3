"""EXPERIMENTS.md's headline numbers are the committed result files.

Each bold "Measured" value of the headline table must equal the value
its benchmark recorded under ``benchmarks/results/``, rounded to the
digits printed, so the document cannot drift from the data.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

#: Headline row label -> (result file, key path, scale to printed unit,
#: printed unit).
HEADLINES = {
    "Hydra avg slowdown, T_RH=500": (
        "fig5_performance", ("all36_slowdown_percent", "hydra"), 1, "%"
    ),
    "Graphene avg slowdown": (
        "fig5_performance", ("all36_slowdown_percent", "graphene"), 1, "%"
    ),
    "CRA-64KB avg slowdown": (
        "fig5_performance", ("all36_slowdown_percent", "cra"), 1, "%"
    ),
    "Updates filtered by GCT": (
        "fig6_distribution", ("averages", "gct_only"), 100, "%"
    ),
    "Updates hitting RCC": (
        "fig6_distribution", ("averages", "rcc_hit"), 100, "%"
    ),
    "Updates reaching DRAM (RCT)": (
        "fig6_distribution", ("averages", "rct_access"), 100, "%"
    ),
    "Hydra SRAM total": (
        "table4_hydra_storage", ("total_kib",), 1, "KB"
    ),
    "Hydra DRAM reservation": (
        "table4_hydra_storage", ("dram_reserved_mib",), 1, "MB"
    ),
}

#: ``| label | paper | **value unit** ... |``
ROW = re.compile(
    r"^\| (?P<label>[^|]+?) \| [^|]+ \| "
    r"\*\*(?P<value>\d+(?:\.\d+)?) ?(?P<unit>%|KB|MB)\*\*"
)


def _headline_rows():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("## Headline comparison", 1)[1].split("\n## ", 1)[0]
    return {
        match["label"]: (match["value"], match["unit"])
        for match in map(ROW.match, section.splitlines())
        if match
    }


def test_every_headline_row_is_pinned():
    assert set(_headline_rows()) == set(HEADLINES)


@pytest.mark.parametrize("label", sorted(HEADLINES))
def test_headline_equals_its_result_file(label):
    printed, unit = _headline_rows()[label]
    name, path, scale, expected_unit = HEADLINES[label]
    value = json.loads((RESULTS / f"{name}.json").read_text())
    for key in path:
        value = value[key]
    decimals = len(printed.partition(".")[2])
    assert unit == expected_unit
    assert printed == f"{value * scale:.{decimals}f}", (name, path)
