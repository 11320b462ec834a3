"""Bounded-memory replay: peak RSS + throughput of chunked replay.

Not a paper figure — this pins the trace substrate's operational
claim (DESIGN.md §13): replay memory is bounded by the chunk size, not
the trace length. The benchmark spools a synthetic trace of
``--requests`` requests into on-disk chunk segments (never
materializing it) and replays it through Hydra on the fast engine;
then it replays the same requests held in RAM as one ``Trace`` (numpy
arrays only, ~21 B per request), which must give the same result. It
reports peak RSS (``getrusage`` high-water mark) after each replay
against what whole-trace Python columns would have cost. One entry is
appended to ``BENCH_stream_memory.json`` at the repository root so
successive PRs accumulate a trajectory.

Run directly::

    PYTHONPATH=src python benchmarks/bench_stream_memory.py
    PYTHONPATH=src python benchmarks/bench_stream_memory.py \
        --requests 2000000 --max-rss-mb 500 --label ci

``--max-rss-mb`` turns the report into a gate: exit 1 if the whole
run's peak RSS (both replays) exceeds the ceiling (CI enforces
this), so a regression that silently materializes the trace fails the
build instead of just burning memory.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import bench_config  # noqa: E402

from repro.sim.simulator import simulate  # noqa: E402
from repro.workloads.streaming import (  # noqa: E402
    DEFAULT_STREAM_CHUNK,
    ChunkedTrace,
    TraceChunk,
)
from repro.workloads.trace import Trace  # noqa: E402

BENCH_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_stream_memory.json"
)

#: Estimated bytes/request of a trace held with whole-trace Python
#: columns: the four numpy columns (8+8+4+1 B) plus boxed-scalar
#: column lists (~4 lists + resolved-topology lists, conservatively
#: 120 B/request).
MATERIALIZED_BYTES_PER_REQUEST = 21 + 120


def _peak_rss_mb() -> float:
    """Process high-water RSS in MB (ru_maxrss is KB on Linux)."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1024.0 if sys.platform == "darwin" else 1.0
    return usage * scale / 1024.0


def _synthetic_chunks(total: int, chunk: int, rows_limit: int, seed: int):
    """GUPS-shaped random chunks, generated one at a time (so the
    benchmark itself never holds more than one chunk)."""
    rng = np.random.default_rng(seed)
    emitted = 0
    while emitted < total:
        n = min(chunk, total - emitted)
        yield TraceChunk(
            gaps_ns=rng.uniform(2.0, 12.0, n),
            rows=rng.integers(0, rows_limit, n, dtype=np.int64),
            lines=rng.integers(1, 4, n).astype(np.int32),
            writes=rng.random(n) < 0.25,
        )
        emitted += n


def run(requests: int, chunk: int, seed: int, label: str) -> dict:
    config = bench_config()
    geometry = config.geometry
    rows_limit = (
        geometry.rows_per_bank
        * geometry.banks_per_rank
        * geometry.ranks_per_channel
        * geometry.channels
    )
    rss_start = _peak_rss_mb()
    spool = Path(tempfile.mkdtemp(prefix="repro-bench-stream-"))
    try:
        spool_started = time.perf_counter()
        source = ChunkedTrace.write(
            _synthetic_chunks(requests, chunk, rows_limit, seed),
            spool / "trace",
            name="bench-stream",
            chunk_requests=chunk,
        )
        spool_seconds = time.perf_counter() - spool_started
        replay_started = time.perf_counter()
        result = simulate(source, config, "hydra")
        replay_seconds = time.perf_counter() - replay_started
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    peak_spooled = _peak_rss_mb()
    in_memory = Trace.concatenate(
        [
            Trace(c.gaps_ns, c.rows, c.lines, c.writes)
            for c in _synthetic_chunks(requests, chunk, rows_limit, seed)
        ],
        name="bench-stream",
    )
    in_memory_started = time.perf_counter()
    in_memory_result = simulate(in_memory, config, "hydra")
    in_memory_seconds = time.perf_counter() - in_memory_started
    if in_memory_result.to_dict() != result.to_dict():
        raise SystemExit("in-memory replay differs from the spooled replay")
    peak = _peak_rss_mb()
    materialized_mb = requests * MATERIALIZED_BYTES_PER_REQUEST / 2**20
    entry = {
        "label": label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "scale": config.scale,
        "requests": result.requests,
        "stream_chunk": chunk,
        "segments": source.n_segments,
        "spool_seconds": round(spool_seconds, 3),
        "replay_seconds": round(replay_seconds, 3),
        "requests_per_sec": round(result.requests / replay_seconds, 1),
        "in_memory_replay_seconds": round(in_memory_seconds, 3),
        "in_memory_mb": round(in_memory.nbytes / 2**20, 1),
        "peak_rss_spooled_mb": round(peak_spooled, 1),
        "peak_rss_mb": round(peak, 1),
        "rss_before_mb": round(rss_start, 1),
        "materialized_estimate_mb": round(materialized_mb, 1),
    }
    print(f"requests          : {entry['requests']:,}")
    print(f"chunk             : {chunk:,} requests x {entry['segments']} segments")
    print(f"spool             : {entry['spool_seconds']:.3f} s")
    print(
        f"replay (hydra/fast): {entry['replay_seconds']:.3f} s "
        f"({entry['requests_per_sec']:,.0f} req/s)"
    )
    print(
        f"in-memory replay  : {entry['in_memory_replay_seconds']:.3f} s "
        f"({entry['in_memory_mb']:.1f} MB of arrays, same result)"
    )
    print(
        f"peak RSS          : {entry['peak_rss_mb']:.1f} MB "
        f"({entry['peak_rss_spooled_mb']:.1f} MB after the spooled replay,"
        f" {entry['rss_before_mb']:.1f} MB before spooling)"
    )
    print(
        f"materialized est. : {entry['materialized_estimate_mb']:.1f} MB"
        " with whole-trace column lists (arrays + lists)"
    )
    return entry


def append_entry(entry: dict, path: Path = BENCH_PATH) -> None:
    payload = {"runs": []}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except (ValueError, OSError):
            pass
    payload.setdefault("runs", []).append(entry)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nappended run {entry['label']!r} to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label", default="dev", help="name this run carries in the trajectory"
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=4_000_000,
        help="trace length to stream (default 4M ≈ 10x+ the memory a"
        " materialized trace of this length would need)",
    )
    parser.add_argument(
        "--chunk",
        type=int,
        default=DEFAULT_STREAM_CHUNK,
        help=f"streaming chunk size in requests (default {DEFAULT_STREAM_CHUNK})",
    )
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        metavar="MB",
        help="fail (exit 1) if peak RSS exceeds this ceiling — the CI"
        " bounded-memory gate",
    )
    parser.add_argument(
        "--no-record", action="store_true",
        help="print only; do not touch BENCH_stream_memory.json",
    )
    args = parser.parse_args(argv)
    entry = run(args.requests, args.chunk, args.seed, args.label)
    if args.max_rss_mb is not None:
        entry["max_rss_mb"] = args.max_rss_mb
        if entry["peak_rss_mb"] > args.max_rss_mb:
            print(
                f"\nFAIL: peak RSS {entry['peak_rss_mb']:.1f} MB exceeds"
                f" the {args.max_rss_mb:.1f} MB ceiling — streaming is"
                " no longer bounded"
            )
            if not args.no_record:
                append_entry(entry)
            return 1
        print(
            f"\nOK: peak RSS {entry['peak_rss_mb']:.1f} MB within the"
            f" {args.max_rss_mb:.1f} MB ceiling"
        )
    if not args.no_record:
        append_entry(entry)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
