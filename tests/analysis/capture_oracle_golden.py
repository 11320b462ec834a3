"""Capture golden security-oracle outputs for the oracle parity test.

Run as a script to (re)generate ``oracle_golden.json``::

    PYTHONPATH=src python tests/analysis/capture_oracle_golden.py

The file records one small arena run (both T_RH rungs of the bottom of
the ladder, every registered tracker, the battery aliases plus one full
attack spec) and one small fuzz campaign: each report's ``to_dict()``
and the exact ``arena-oracle`` / ``fuzz-oracle`` manifest lines the
runs append. ``tests/analysis/test_oracle_golden.py`` asserts current
code reproduces all of it byte-for-byte, so refactors of the attack
construction and oracle-cell paths cannot move a verdict, a count or a
manifest line. Regenerating is for an intentional behaviour change
only, and must be said in the commit message.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List

GOLDEN_PATH = Path(__file__).parent / "oracle_golden.json"

#: Manifest line kinds the oracle cells write (grid ``cell`` lines carry
#: wall times and are not part of the golden).
ORACLE_KINDS = ("arena-oracle", "fuzz-oracle")


def _oracle_lines(manifest: Path) -> List[str]:
    """The oracle-kind lines of a manifest, verbatim."""
    if not manifest.exists():
        return []
    return [
        line
        for line in manifest.read_text(encoding="utf-8").splitlines()
        if json.loads(line).get("kind") in ORACLE_KINDS
    ]


def capture(workdir: Path) -> Dict[str, Any]:
    """Run the pinned arena and fuzz cells; ``workdir`` holds the
    manifests (the result cache is whatever ``$REPRO_CACHE_DIR``
    names, so callers point it somewhere disposable)."""
    from repro.analysis.arena import ORACLE_SEQUENCES, run_arena
    from repro.attacks.fuzz import run_fuzz
    from repro.sim import SystemConfig

    arena_manifest = workdir / "arena-manifest.jsonl"
    arena = run_arena(
        SystemConfig(scale=1 / 256, n_windows=1),
        trh_ladder=(1000, 500),
        workloads=("GUPS",),
        sequences=ORACLE_SEQUENCES + ("half_double",),
        jobs=1,
        manifest_path=arena_manifest,
        progress=False,
    )
    fuzz_manifest = workdir / "fuzz-manifest.jsonl"
    fuzz = run_fuzz(
        SystemConfig(scale=1 / 128),
        programs=2,
        jobs=1,
        manifest_path=fuzz_manifest,
    )
    return {
        "arena": arena.to_dict(),
        "arena_manifest": _oracle_lines(arena_manifest),
        "fuzz": fuzz.to_dict(),
        "fuzz_manifest": _oracle_lines(fuzz_manifest),
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["REPRO_CACHE_DIR"] = str(Path(tmp) / "cache")
        payload = capture(Path(tmp))
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(
        f"wrote {GOLDEN_PATH} ({len(payload['arena_manifest'])} arena, "
        f"{len(payload['fuzz_manifest'])} fuzz oracle lines)"
    )


if __name__ == "__main__":
    main()
