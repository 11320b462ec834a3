"""Command-line front-end: ``hydra-sim``.

Subcommands:

- ``run``           — simulate one workload under one tracker and
  print a result summary (optionally against the baseline).
- ``sweep``         — run a tracker across all 36 workloads and print
  per-workload normalized performance plus suite geomeans.
- ``list-trackers`` — print the tracker registry: every registered
  tracker with its tunable parameters.
- ``storage``       — print the Table 1/4/5 storage report.
- ``security``      — run the §5 attack programs against Hydra under
  the Theorem-1 oracle (exit 1 on any violation).
- ``arena``         — race every registered tracker down a T_RH
  ladder and print the slowdown / storage / security Pareto report.
- ``list-attacks``  — print the attack-program registry.
- ``fuzz``          — drive every tracker with seeded random hammer
  programs and judge the outcomes (see ``repro.attacks.fuzz``).
- ``trace``         — inspect / convert / head / record trace files
  (chunked directories, ``.npz``, external text) without loading
  them whole.

Everywhere a tracker is named (``--tracker``), a parameterized spec
string is accepted too: ``hydra@trh=1000,rcc_kb=28``,
``cra@cache_kb=128``, ``para@probability=0.01``, ...

Attacks use the same spec grammar (``--attack
many_sided@aggs=18,rounds=4096``): ``run --attack`` injects the
compiled program alongside the workload as attacker traffic, and
``arena --attack`` replaces the oracle battery with the named
programs (battery aliases ``single``/``many``/``random`` still
work there).

``--engine {fast,queued}`` selects the memory-controller engine for
``run``/``sweep``/``submit``/``arena``/``experiment`` (default: the
fast in-order model); ``engine=`` inside a spec string overrides it
per tracker column (``--tracker hydra@engine=queued``).

``--stream-chunk N`` (same subcommands) streams traces through
on-disk chunks of N requests instead of materializing them in RAM
(bit-identical results, bounded memory; ``stream_chunk=`` inside a
spec string overrides per column), and ``run --trace-file PATH``
replays a recorded trace — chunked directory, ``.npz``, or external
text — through the same simulation path (DESIGN.md §13).

Each subcommand takes only the system options its handler reads:
``--jobs`` only where a grid fans out (``sweep``, ``arena``,
``fuzz``, ``experiment``), ``--trh`` not on ``arena`` (its ladder
sets T_RH), and ``storage`` only ``--trh``.

Each subcommand imports what only it needs inside its handler, so
``serve`` and the other non-attack subcommands never load the attack
stack.

Observability (see ``repro.obs``): ``run --observe`` records a
per-window metric series during the simulation and prints it;
``sweep --manifest FILE`` appends a JSON-lines provenance record per
grid cell; ``report --manifest FILE`` summarizes such a manifest.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.memctrl import ENGINES
from repro.workloads import all_names

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig


def _count_type(minimum: int, meaning: str) -> Callable[[str], int]:
    def parse(value: str) -> int:
        try:
            count = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
        if count < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum} ({meaning})")
        return count

    return parse


_jobs_type = _count_type(0, "0 = one per CPU")


#: The system options several subcommands share, by flag. Each parser
#: takes only the ones its handler reads (see ``build_parser``).
_SYSTEM_OPTIONS = {
    "--scale-denominator": dict(
        type=_count_type(1, "1 = full system"),
        default=32,
        help="simulate 1/N of the full system (default 32; 1 = full)",
    ),
    "--trh": dict(type=int, default=500, help="RowHammer threshold"),
    "--engine": dict(
        choices=ENGINES,
        default="fast",
        help="memory-controller engine: 'fast' (in-order resolution, the"
        " sweep default) or 'queued' (FR-FCFS + write-queue drain);"
        " per-spec override: --tracker 'hydra@engine=queued'",
    ),
    "--jobs": dict(
        type=_jobs_type,
        default=None,
        metavar="N",
        help="simulate up to N grid cells in parallel (0 = one per CPU; "
        "default: $REPRO_JOBS, else serial)",
    ),
    "--stream-chunk": dict(
        type=int,
        default=0,
        metavar="N",
        help="stream traces through on-disk chunks of N requests"
        " (bounded memory; 0 = materialize in RAM, the default);"
        " per-spec override: --tracker 'hydra@stream_chunk=65536'",
    ),
}

#: Everything a subcommand that simulates workloads reads.
_SIMULATION = ("--scale-denominator", "--trh", "--engine", "--stream-chunk")


def _add_options(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_SYSTEM_OPTIONS[flag])


def _config(args: argparse.Namespace) -> SystemConfig:
    """The system the parsed options describe; options a subcommand
    does not take keep their ``SystemConfig`` defaults."""
    from repro.sim.config import SystemConfig

    given = {
        name: getattr(args, name)
        for name in ("trh", "engine", "stream_chunk", "trace_file")
        if hasattr(args, name)
    }
    return SystemConfig(scale=1.0 / args.scale_denominator, **given)


#: Per-window series columns worth a terminal column, in print order
#: (only the ones the run's tracker actually reported are shown).
_SERIES_COLUMNS = (
    ("hydra_gct_only", "gct_only"),
    ("hydra_rcc_hits", "rcc_hit"),
    ("hydra_rct_accesses", "rct_acc"),
    ("hydra_group_inits", "grp_init"),
    ("cra_cache_misses", "c$miss"),
    ("tracker_mitigations", "mitig"),
    ("mc_meta_accesses", "meta"),
    ("mc_victim_refreshes", "refresh"),
)


def _print_observability(result, series_out: Optional[str]) -> None:
    """Render an observed run's per-window series (and regenerated
    Figure 6 distribution, when the tracker reports Hydra counters)."""
    obs = result.observability
    series = obs.series
    totals = series.totals()
    columns = [
        (key, label) for key, label in _SERIES_COLUMNS if key in totals
    ]
    print(
        f"\nper-window series ({series.period_ns / 1e6:.3f} ms windows,"
        f" {len(series)} windows):"
    )
    header = f"{'win':>4} {'start_ms':>9}" + "".join(
        f" {label:>9}" for _, label in columns
    )
    print(header)
    for sample in series:
        row = f"{sample.index:>4} {sample.start_ns / 1e6:>9.3f}"
        for key, _ in columns:
            row += f" {sample.get(key):>9.0f}"
        print(row)
    if "hydra_gct_only" in totals:
        regenerated = series.hydra_distribution()
        print(
            "fig6 distribution (regenerated from series): "
            + ", ".join(
                f"{k}={100 * v:.2f}%" for k, v in regenerated.items()
            )
        )
    if series_out:
        import json
        from pathlib import Path

        Path(series_out).write_text(
            json.dumps(obs.to_dict(), indent=2, sort_keys=True)
        )
        print(f"wrote {series_out}")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.sim.sweep import ExperimentRunner

    runner = ExperimentRunner(_config(args))
    if args.attack:
        # Attack runs mix a compiled program into the workload trace;
        # the mixed trace is unique to this invocation, so simulate
        # directly (no cache) for both columns.
        from repro.attacks import AttackContext, compile_attack
        from repro.sim import simulate
        from repro.workloads import attack_alongside, materialize

        context = AttackContext.from_system(runner.config)
        compiled = compile_attack(args.attack, context)
        # Attack mixing sorts the merged arrival schedule, which needs
        # the whole victim trace; chunked sources are materialized for
        # this path only.
        trace = attack_alongside(
            materialize(runner.trace_for(args.workload)),
            compiled.rows(),
            args.attack_rate,
            name=f"{args.workload}+{compiled.name}",
        )
        result = simulate(
            trace, runner.config, args.tracker, observe=args.observe
        )
        base = simulate(trace, runner.config, "baseline")
        print(
            f"attack            : {compiled.name} "
            f"({compiled.activations} activations at"
            f" {args.attack_rate:g}/ns)"
        )
    elif args.observe:
        # Observability lives on the live RunResult only (never in the
        # cache), so an observed run always simulates.
        from repro import api

        result = api.run(
            args.tracker, args.workload, runner.config, observe=True
        )
        base = runner.run("baseline", args.workload)
    else:
        result = runner.run(args.tracker, args.workload)
        base = runner.run("baseline", args.workload)
    slowdown = 100.0 * (result.end_time_ns / base.end_time_ns - 1.0)
    print(f"workload          : {result.workload}")
    print(f"tracker           : {result.tracker}")
    print(f"engine            : {result.engine}")
    print(f"execution time    : {result.end_time_ns / 1e6:.3f} ms "
          f"(baseline {base.end_time_ns / 1e6:.3f} ms, {slowdown:+.2f}%)")
    print(f"activations       : {result.activations}")
    print(f"metadata accesses : {result.meta_accesses}")
    print(f"mitigations       : {result.mitigations}")
    print(f"victim refreshes  : {result.victim_refreshes}")
    print(f"bus utilization   : {result.bus_utilization:.1%}")
    print(f"DRAM power        : {result.dram_power_w:.2f} W")
    for key, value in result.extra.items():
        print(f"{key:<18}: {value}")
    if result.observability is not None:
        _print_observability(result, args.series_out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro import api
    from repro.obs.manifest import resolve_manifest_path
    from repro.sim import default_cache_dir

    comparisons = api.compare(
        args.tracker,
        config=_config(args),
        jobs=args.jobs,
        manifest_path=args.manifest,
    )
    print(f"{'workload':<12} {'norm. perf':>10}")
    for comp in comparisons:
        print(f"{comp.workload:<12} {comp.normalized_performance:>10.4f}")
    print("-" * 23)
    for suite, mean in comparisons.suite_geomeans().items():
        print(f"{suite:<12} {mean:>10.4f}")
    from repro.analysis.charts import bar_chart

    print("\nslowdown by suite:")
    print(bar_chart(comparisons.slowdowns(), width=40, unit="%"))
    manifest = resolve_manifest_path(args.manifest, default_cache_dir())
    if manifest is not None:
        print(f"\nmanifest appended: {manifest}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import SweepBroker
    from repro.service.http import serve_forever

    broker = SweepBroker(
        state_dir=Path(args.state_dir) if args.state_dir else None,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        pool=args.pool,
        workers=args.workers,
    )
    serve_forever(broker, host=args.host, port=args.port)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro import api

    grid = api.GridSpec(
        trackers=tuple(args.trackers.split(",")),
        workloads=tuple(args.workloads.split(",")) if args.workloads else (),
        config=_config(args),
    )
    handle = api.sweep(grid, service=f"{args.host}:{args.port}")
    status = handle.status()
    print(
        f"submitted {handle.job_id}"
        f" ({status.total_cells} cells, grid {status.grid_key})"
    )
    if args.detach:
        return 0
    for event in handle.events():
        print(
            f"  {event.get('spec', '?'):<24}"
            f" {event.get('workload', '?'):<12}"
            f" {'cache' if event.get('from_cache') else 'ran':<5}"
            f" {event.get('wall_time_s', 0.0):>8.3f}s"
        )
    result = handle.result()
    final = handle.status()
    print(f"job {handle.job_id}: {final.state}"
          f" ({final.cache_hits} cache hits, {final.retries} retries)")
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(result.to_payload(), indent=2, sort_keys=True)
        )
        print(f"wrote {args.json_out}")
    else:
        print(result.to_table())
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(args.host, args.port)
    statuses = client.jobs()
    if not statuses:
        print("no jobs")
        return 0
    print(
        f"{'job':<20} {'state':<10} {'cells':>11}"
        f" {'hits':>5} {'retries':>7}  error"
    )
    for st in statuses:
        cells = f"{st.completed_cells}/{st.total_cells}"
        print(
            f"{st.job_id:<20} {st.state:<10} {cells:>11}"
            f" {st.cache_hits:>5} {st.retries:>7}  {st.error}"
        )
    return 0


def _cmd_list_trackers(args: argparse.Namespace) -> int:
    from repro.trackers.registry import UNIVERSAL_PARAMS, available_trackers, tracker_info

    print("tracker spec grammar: name | name@key=value[,key=value...]")
    universals = ", ".join(
        f"{key} ({param.type.__name__})"
        for key, param in sorted(UNIVERSAL_PARAMS.items())
    )
    print(f"universal parameters: {universals}")
    print()
    for name in available_trackers():
        info = tracker_info(name)
        print(f"{name:<18} {info.summary}")
        for key, param in sorted(info.params.items()):
            default = "from config" if param.default is None else param.default
            detail = f" — {param.help}" if param.help else ""
            print(
                f"    {key:<20} {param.type.__name__:<6} "
                f"default={default}{detail}"
            )
    return 0


def _cmd_storage(args: argparse.Namespace) -> int:
    from repro.core import HydraConfig, hydra_storage
    from repro.trackers.storage import storage_table, total_sram_table

    print("Table 1 — per-rank SRAM (KB):")
    for row in storage_table():
        cells = ", ".join(
            f"{name}={bytes_ / 1024:.0f}" for name, bytes_ in row.bytes_by_scheme.items()
        )
        print(f"  T_RH={row.trh:<6} {cells}")
    print("\nTable 4 — Hydra breakdown:")
    for name, value in hydra_storage(HydraConfig(trh=args.trh)).rows().items():
        print(f"  {name:<8} {value}")
    print("\nTable 5 — total SRAM, 32GB system (KB):")
    for name, cols in total_sram_table(trh=args.trh).items():
        print(
            f"  {name:<10} DDR4={cols['ddr4'] / 1024:.1f}  DDR5={cols['ddr5'] / 1024:.1f}"
        )
    return 0


def _cmd_security(args: argparse.Namespace) -> int:
    from repro.analysis.security import verify_tracker
    from repro.attacks import compile_program, resolve
    from repro.attacks.programs import (
        double_sided_program,
        half_double_program,
        many_sided_program,
        rct_region_program,
        single_sided_program,
        thrash_then_hammer_program,
    )
    from repro.core import HydraTracker

    config = _config(args)
    hydra_cfg = config.hydra_config()
    geometry = hydra_cfg.geometry
    threshold = hydra_cfg.th
    programs = {
        "single-sided": single_sided_program(1000, 20 * threshold),
        "double-sided": double_sided_program(2000, 10 * threshold),
        "many-sided": many_sided_program(list(range(3000, 3024)), 2 * threshold),
        "half-double": half_double_program(4000, 20 * threshold),
        "thrash": thrash_then_hammer_program(
            5000, list(range(6000, 6512)), 4 * threshold, interleave=8
        ),
        "rct-region": rct_region_program(geometry, 10 * threshold),
    }
    # Patterns derived from the geometry are checked against it.
    checked = {"rct-region"}
    patterns = {
        name: compile_program(
            resolve(program, geometry=geometry if name in checked else None)
        )
        for name, program in programs.items()
    }
    failures = 0
    for name, sequence in patterns.items():
        tracker = HydraTracker(hydra_cfg)
        report = verify_tracker(tracker, geometry, sequence, threshold)
        status = "SECURE" if report.secure else "VIOLATED"
        if not report.secure:
            failures += 1
        print(
            f"{name:<14} {status:<9} activations={report.activations:>8} "
            f"mitigations={report.mitigations:>6} "
            f"max-unmitigated={report.max_unmitigated_count}/{threshold}"
        )
    return 1 if failures else 0


def _csv_ints(value: str) -> List[int]:
    try:
        return [int(item) for item in value.split(",") if item.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}"
        )


def _cmd_arena(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis.arena import (
        DEFAULT_ARENA_WORKLOADS,
        DEFAULT_TRH_LADDER,
        ORACLE_SEQUENCES,
        run_arena,
    )
    from repro.analysis.report import render_arena

    config = _config(args)
    report = run_arena(
        config,
        trackers=args.trackers.split(",") if args.trackers else None,
        trh_ladder=args.trh_ladder or DEFAULT_TRH_LADDER,
        workloads=(
            args.workloads.split(",")
            if args.workloads
            else DEFAULT_ARENA_WORKLOADS
        ),
        sequences=tuple(args.attack) if args.attack else ORACLE_SEQUENCES,
        jobs=args.jobs,
        manifest_path=args.manifest,
    )
    print(render_arena(report))
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True)
        )
        print(f"wrote {args.json_out}")
    return 0


def _cmd_list_attacks(args: argparse.Namespace) -> int:
    from repro.attacks import attack_info, available_attacks

    print("attack spec grammar: name | name@key=value[,key=value...]")
    print(
        "defaults marked 'from context' are derived from the geometry"
        " and T_RH under test"
    )
    print()
    for name in available_attacks():
        info = attack_info(name)
        print(f"{name:<14} {info.summary}")
        for key, param in sorted(info.params.items()):
            default = (
                "from context" if param.default is None else param.default
            )
            detail = f" — {param.help}" if param.help else ""
            print(
                f"    {key:<16} {param.type.__name__:<6} "
                f"default={default}{detail}"
            )
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.attacks.fuzz import (
        DEFAULT_ACT_BUDGET,
        DEFAULT_CORPUS_SEED,
        run_fuzz,
    )

    config = _config(args)
    report = run_fuzz(
        config,
        trackers=args.trackers.split(",") if args.trackers else None,
        programs=args.programs,
        corpus_seed=(
            args.corpus_seed
            if args.corpus_seed is not None
            else DEFAULT_CORPUS_SEED
        ),
        act_budget=(
            args.act_budget
            if args.act_budget is not None
            else DEFAULT_ACT_BUDGET
        ),
        jobs=args.jobs,
        manifest_path=args.manifest,
    )
    print(
        f"fuzzed {len(report.trackers)} trackers x {report.programs}"
        f" programs (corpus seed {report.corpus_seed:#x},"
        f" T_RH={report.trh})"
    )
    for spec, counts in report.verdict_counts().items():
        rendered = ", ".join(
            f"{verdict}: {count}" for verdict, count in sorted(counts.items())
        )
        print(f"  {spec:<18} {rendered}")
    for outcome in report.flagged:
        print(
            f"  FLAGGED {outcome.spec} on {outcome.program}"
            f" (seed {outcome.program_seed:#x}):"
            f" {outcome.violations} violations,"
            f" max unmitigated {outcome.max_unmitigated}"
        )
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True)
        )
        print(f"wrote {args.json_out}")
    return 1 if report.flagged else 0


def _cmd_trace_inspect(args: argparse.Namespace) -> int:
    from repro.workloads.streaming import (
        open_trace_source,
        source_duration_ns,
        source_request_count,
    )
    from repro.workloads.trace import characterize

    source = open_trace_source(args.path, chunk_requests=args.chunk)
    stats = characterize(source, hot_threshold=args.hot_threshold)
    print(f"trace             : {source.name}")
    print(f"requests          : {source_request_count(source)}")
    print(f"duration (intent) : {source_duration_ns(source) / 1e6:.3f} ms")
    print(f"activations       : {stats.activations}")
    print(f"unique rows       : {stats.unique_rows}")
    print(f"ACT>{args.hot_threshold} rows      : {stats.act250_rows}")
    print(f"ACTs per row      : {stats.acts_per_row:.2f}")
    print(f"line transfers    : {stats.line_transfers}")
    return 0


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    from repro.workloads.streaming import open_trace_source, write_trace_source

    source = open_trace_source(args.source, chunk_requests=args.chunk)
    print(write_trace_source(source, args.destination, args.chunk))
    return 0


def _cmd_trace_head(args: argparse.Namespace) -> int:
    from itertools import islice

    from repro.workloads.streaming import open_trace_source

    source = open_trace_source(args.path, chunk_requests=args.chunk)
    print(f"# {source.name}")
    print("# <gap_ns> <R|W> <row_id> <n_lines>")
    shown = 0
    for gap, row, n_lines, is_write in islice(
        iter(source), args.start, args.start + args.count
    ):
        print(f"{gap!r} {'W' if is_write else 'R'} {row} {n_lines}")
        shown += 1
    if not shown:
        print(f"# (no requests at offset {args.start})")
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from repro.sim.simulator import trace_for_workload
    from repro.workloads.streaming import write_trace_source

    config = _config(args).with_stream_chunk(args.chunk)
    source = trace_for_workload(config, args.workload)
    print(write_trace_source(source, args.destination, args.chunk))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import json

    from repro.sim.experiments import available_experiments, run_experiment

    if args.name == "list":
        for name in available_experiments():
            print(name)
        return 0
    payload = run_experiment(args.name, _config(args), jobs=args.jobs)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.report import render_manifest, write_report

    output = Path(args.output) if args.output else None
    if args.manifest:
        text = render_manifest(Path(args.manifest))
        if output is not None:
            output.write_text(text)
    else:
        text = write_report(Path(args.results_dir), output)
    if output is None:
        print(text)
    else:
        print(f"wrote {output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydra-sim",
        description="Hydra (ISCA 2022) RowHammer-tracking simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one workload")
    _add_options(run, *_SIMULATION)
    run.add_argument(
        "workload",
        nargs="?",
        default="GUPS",
        choices=all_names(),
        help="synthetic workload to simulate (default GUPS; ignored"
        " when --trace-file replays a recorded trace)",
    )
    run.add_argument(
        "--trace-file",
        default=None,
        metavar="PATH",
        help="replay a recorded trace instead of generating the"
        " workload: a chunked-trace directory, an .npz trace, or an"
        " external text trace (see 'hydra-sim trace --help');"
        " combine with --stream-chunk to replay in bounded memory",
    )
    run.add_argument("--tracker", default="hydra")
    run.add_argument(
        "--observe",
        action="store_true",
        help="record per-window metrics during the run (bypasses the"
        " result cache) and print the window series afterwards",
    )
    run.add_argument(
        "--series-out",
        default=None,
        metavar="FILE",
        help="with --observe: also write the window series + final"
        " metrics snapshot as JSON",
    )
    run.add_argument(
        "--attack",
        default=None,
        metavar="SPEC",
        help="inject a compiled attack program alongside the workload"
        " (e.g. many_sided@aggs=18; see list-attacks); bypasses the"
        " result cache",
    )
    run.add_argument(
        "--attack-rate",
        type=float,
        default=0.01,
        metavar="PER_NS",
        help="with --attack: attacker activations per nanosecond"
        " (default 0.01 = one per 100 ns)",
    )
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="run all 36 workloads")
    _add_options(sweep, *_SIMULATION, "--jobs")
    sweep.add_argument("--tracker", default="hydra")
    sweep.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="append one JSON-lines provenance record per grid cell"
        " (default: $REPRO_MANIFEST, or <cache>/manifest.jsonl when"
        " REPRO_OBS=1)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    serve = sub.add_parser(
        "serve",
        help="run the sweep service: HTTP front-end over a job broker",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8265)
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="where job specs/statuses/manifests persist"
        " (default: the result-cache directory); restarting a broker"
        " on the same state dir resumes interrupted jobs",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="shared result cache (default: $REPRO_CACHE_DIR); point"
        " several brokers at one directory to shard across machines",
    )
    serve.add_argument(
        "--pool",
        choices=("process", "thread", "inline"),
        default="process",
        help="worker pool kind (default process)",
    )
    serve.add_argument(
        "--workers",
        type=_jobs_type,
        default=None,
        metavar="N",
        help="worker count (0 = one per CPU; default: $REPRO_JOBS, else serial)",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit a sweep grid to a running 'hydra-sim serve'",
    )
    _add_options(submit, *_SIMULATION)
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8265)
    submit.add_argument(
        "--trackers",
        default="hydra",
        metavar="SPECS",
        help="comma-separated tracker specs forming the grid's tracker"
        " axis (default hydra)",
    )
    submit.add_argument(
        "--workloads",
        default=None,
        metavar="NAMES",
        help="comma-separated workload names (default: all 36)",
    )
    submit.add_argument(
        "--detach",
        action="store_true",
        help="print the job id and return instead of streaming events"
        " and waiting for the result",
    )
    submit.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="write the completed GridResult payload as JSON",
    )
    submit.set_defaults(func=_cmd_submit)

    jobs_cmd = sub.add_parser(
        "jobs", help="list jobs on a running 'hydra-sim serve'"
    )
    jobs_cmd.add_argument("--host", default="127.0.0.1")
    jobs_cmd.add_argument("--port", type=int, default=8265)
    jobs_cmd.set_defaults(func=_cmd_jobs)

    catalogue = sub.add_parser(
        "list-trackers",
        help="print the tracker registry and each tracker's parameters",
    )
    catalogue.set_defaults(func=_cmd_list_trackers)

    storage = sub.add_parser("storage", help="print storage tables")
    _add_options(storage, "--trh")
    storage.set_defaults(func=_cmd_storage)

    security = sub.add_parser("security", help="verify attack resilience")
    _add_options(security, "--scale-denominator", "--trh")
    security.set_defaults(func=_cmd_security)

    arena = sub.add_parser(
        "arena",
        help="race every tracker down a T_RH ladder: slowdown /"
        " storage / security Pareto report",
        # Refuse --trh rather than read it as --trh-ladder.
        allow_abbrev=False,
    )
    _add_options(
        arena, "--scale-denominator", "--engine", "--stream-chunk", "--jobs"
    )
    arena.add_argument(
        "--trh-ladder",
        type=_csv_ints,
        default=None,
        metavar="T1,T2,...",
        help="comma-separated T_RH rungs (default: 139000,20000,4800,"
        "1000,500)",
    )
    arena.add_argument(
        "--trackers",
        default=None,
        metavar="SPEC,SPEC,...",
        help="comma-separated tracker specs (default: every registered"
        " tracker)",
    )
    arena.add_argument(
        "--workloads",
        default=None,
        metavar="W1,W2,...",
        help="comma-separated workloads for the slowdown axis (default:"
        " a representative 5-workload subset)",
    )
    arena.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="also write the full report (cells + frontiers) as JSON",
    )
    arena.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="append grid provenance and arena-oracle verdict records"
        " here (default: $REPRO_MANIFEST, or <cache>/manifest.jsonl"
        " when REPRO_OBS=1)",
    )
    arena.add_argument(
        "--attack",
        action="append",
        default=None,
        metavar="SPEC",
        help="replace the oracle battery with this attack spec or"
        " battery alias (single/many/random); repeatable",
    )
    arena.set_defaults(func=_cmd_arena)

    catalogue_attacks = sub.add_parser(
        "list-attacks",
        help="print the attack-program registry and each program's"
        " parameters",
    )
    catalogue_attacks.set_defaults(func=_cmd_list_attacks)

    fuzz = sub.add_parser(
        "fuzz",
        help="judge every tracker against seeded random hammer programs",
    )
    _add_options(fuzz, "--scale-denominator", "--trh", "--jobs")
    fuzz.add_argument(
        "--programs",
        type=int,
        default=8,
        metavar="N",
        help="generated programs per tracker (default 8)",
    )
    fuzz.add_argument(
        "--corpus-seed",
        type=lambda v: int(v, 0),
        default=None,
        metavar="SEED",
        help="corpus seed (hex ok; default 0xF0552) — program i uses"
        " seed+i, so flagged programs reproduce exactly",
    )
    fuzz.add_argument(
        "--act-budget",
        type=int,
        default=None,
        metavar="N",
        help="per-program activation budget (default 60000, shrunk"
        " automatically at low T_RH)",
    )
    fuzz.add_argument(
        "--trackers",
        default=None,
        metavar="SPEC,SPEC,...",
        help="comma-separated tracker specs (default: every registered"
        " tracker)",
    )
    fuzz.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="also write the full fuzz report (every judged cell) as"
        " JSON",
    )
    fuzz.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="append one fuzz-oracle verdict record per judged cell"
        " (default: $REPRO_MANIFEST, or <cache>/manifest.jsonl when"
        " REPRO_OBS=1)",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    exp = sub.add_parser(
        "experiment", help="run one named paper experiment (fig5, table1, ...)"
    )
    _add_options(exp, *_SIMULATION, "--jobs")
    exp.add_argument("name", help="experiment id; use 'list' to enumerate")
    exp.set_defaults(func=_cmd_experiment)

    trace = sub.add_parser(
        "trace",
        help="inspect/convert/record trace files (chunked, npz, text)",
        description="Tools over recorded traces. Formats are inferred"
        " from paths: a directory is a chunked trace (mmapped npy"
        " segments + manifest), *.npz is a materialized numpy trace,"
        " and *.trc/*.txt/*.trace is the external text format"
        " '<gap_ns> <R|W> <row_id> [n_lines]' (one request per line,"
        " '#' comments). All tools stream chunk-at-a-time, so a"
        " 100M-request trace never sits in RAM whole.",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    def _add_chunk(p: argparse.ArgumentParser) -> None:
        from repro.workloads import DEFAULT_STREAM_CHUNK

        p.add_argument(
            "--chunk",
            type=int,
            default=DEFAULT_STREAM_CHUNK,
            metavar="N",
            help="streaming chunk / segment size in requests"
            f" (default {DEFAULT_STREAM_CHUNK})",
        )

    inspect = trace_sub.add_parser(
        "inspect", help="print Table-3-style statistics of a trace"
    )
    inspect.add_argument("path", help="trace to inspect (any format)")
    inspect.add_argument(
        "--hot-threshold",
        type=int,
        default=250,
        metavar="N",
        help="activation count above which a row counts as hot"
        " (default 250, Table 3's ACT>250 column)",
    )
    _add_chunk(inspect)
    inspect.set_defaults(func=_cmd_trace_inspect)

    convert = trace_sub.add_parser(
        "convert",
        help="convert between trace formats (npz / text / chunked dir)",
    )
    convert.add_argument("source", help="trace to read (any format)")
    convert.add_argument(
        "destination",
        help="where to write: *.npz, *.trc/*.txt/*.trace (text), or a"
        " directory path (chunked)",
    )
    _add_chunk(convert)
    convert.set_defaults(func=_cmd_trace_convert)

    head = trace_sub.add_parser(
        "head",
        help="print a slice of a trace as text without loading it whole",
    )
    head.add_argument("path", help="trace to read (any format)")
    head.add_argument(
        "-n", "--count", type=int, default=10, metavar="N",
        help="requests to print (default 10)",
    )
    head.add_argument(
        "--start", type=int, default=0, metavar="I",
        help="first request index to print (default 0)",
    )
    _add_chunk(head)
    head.set_defaults(func=_cmd_trace_head)

    record = trace_sub.add_parser(
        "record",
        help="generate a synthetic workload's trace and save it",
    )
    _add_options(record, "--scale-denominator")
    record.add_argument("workload", choices=all_names())
    record.add_argument(
        "destination",
        help="where to write: *.npz, *.trc/*.txt/*.trace (text), or a"
        " directory path (chunked)",
    )
    _add_chunk(record)
    record.set_defaults(func=_cmd_trace_record)

    report = sub.add_parser(
        "report", help="render paper-vs-measured report from bench results"
    )
    report.add_argument(
        "--results-dir", default="benchmarks/results",
        help="directory of recorded benchmark JSON results",
    )
    report.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="summarize a sweep manifest (JSON lines) instead of the"
        " benchmark results directory",
    )
    report.add_argument(
        "--output", default=None, help="write markdown here instead of stdout"
    )
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
