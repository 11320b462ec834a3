"""Markdown report generation from recorded benchmark results.

Every benchmark under ``benchmarks/`` writes its regenerated
table/figure data as JSON into ``benchmarks/results/``. This module
turns that directory into a human-readable reproduction report —
the same information EXPERIMENTS.md curates, produced mechanically —
so a fresh run at a different scale (e.g. ``REPRO_SCALE=1``) can be
summarized without hand-editing.

Used by ``hydra-sim report``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

#: Paper reference values for side-by-side display.
PAPER_REFERENCE = {
    "fig5_all36_slowdown": {"graphene": 0.1, "cra": 25.8, "hydra": 0.7},
    "fig6_averages": {"gct_only": 0.907, "rcc_hit": 0.090, "rct_access": 0.003},
    "fig7_all36": {"500": 0.7, "250": 1.6, "125": 4.0},
    "fig8_all36": {"hydra": 0.7, "hydra-norcc": 4.5, "hydra-nogct": 20.0},
    "table4_total_kib": 56.5,
}


def load_results(results_dir: Path) -> Dict[str, dict]:
    """All recorded experiment payloads, keyed by experiment name."""
    results: Dict[str, dict] = {}
    if not results_dir.is_dir():
        return results
    for path in sorted(results_dir.glob("*.json")):
        try:
            results[path.stem] = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
    return results


def _line(label: str, paper, measured) -> str:
    return f"| {label} | {paper} | {measured} |"


def render_report(results: Dict[str, dict]) -> str:
    """Markdown summary of paper-vs-measured for recorded results."""
    lines: List[str] = [
        "# Reproduction report",
        "",
        "Generated from benchmarks/results/ — run "
        "`pytest benchmarks/ --benchmark-only` to refresh.",
        "",
        "| quantity | paper | measured |",
        "|---|---|---|",
    ]
    fig5 = results.get("fig5_performance")
    if fig5:
        for tracker, paper_value in PAPER_REFERENCE["fig5_all36_slowdown"].items():
            measured = fig5["all36_slowdown_percent"].get(tracker)
            lines.append(
                _line(
                    f"{tracker} avg slowdown (Fig. 5)",
                    f"{paper_value}%",
                    f"{measured}%",
                )
            )
    fig6 = results.get("fig6_distribution")
    if fig6:
        for key, paper_value in PAPER_REFERENCE["fig6_averages"].items():
            measured = fig6["averages"].get(key, 0.0)
            lines.append(
                _line(
                    f"updates at {key} (Fig. 6)",
                    f"{100 * paper_value:.1f}%",
                    f"{100 * measured:.1f}%",
                )
            )
    fig7 = results.get("fig7_trh_sensitivity")
    if fig7:
        for trh, paper_value in PAPER_REFERENCE["fig7_all36"].items():
            measured = fig7.get(trh, {}).get("ALL(36)")
            lines.append(
                _line(
                    f"Hydra @ T_RH={trh} (Fig. 7)",
                    f"{paper_value}%",
                    f"{measured}%",
                )
            )
    fig8 = results.get("fig8_ablation")
    if fig8:
        for variant, paper_value in PAPER_REFERENCE["fig8_all36"].items():
            measured = fig8["all36_slowdown_percent"].get(variant)
            lines.append(
                _line(f"{variant} (Fig. 8)", f"{paper_value}%", f"{measured}%")
            )
    table4 = results.get("table4_hydra_storage")
    if table4:
        lines.append(
            _line(
                "Hydra SRAM total (Table 4)",
                f"{PAPER_REFERENCE['table4_total_kib']} KB",
                f"{table4['total_kib']} KB",
            )
        )
    security = results.get("sec5_security")
    if security:
        lines.append("")
        lines.append("## Security (Theorem-1 oracle)")
        lines.append("")
        lines.append("| attack | secure | max unmitigated |")
        lines.append("|---|---|---|")
        for name, row in sorted(security.items()):
            lines.append(
                f"| {name} | {'yes' if row['secure'] else '**NO**'} | "
                f"{row['max_unmitigated']} |"
            )
    missing = [
        name
        for name in (
            "fig5_performance",
            "fig6_distribution",
            "fig7_trh_sensitivity",
            "fig8_ablation",
            "sec5_security",
        )
        if name not in results
    ]
    if missing:
        lines.append("")
        lines.append(
            "Missing experiments (benchmarks not yet run): "
            + ", ".join(missing)
        )
    lines.append("")
    return "\n".join(lines)


def write_report(
    results_dir: Path, output_path: Optional[Path] = None
) -> str:
    """Render the report; optionally write it to disk."""
    text = render_report(load_results(results_dir))
    if output_path is not None:
        output_path.write_text(text)
    return text


def _kib(size_bytes: int) -> str:
    """Compact storage rendering for arena tables."""
    if size_bytes == 0:
        return "0"
    if size_bytes < 1024:
        return f"{size_bytes} B"
    kib = size_bytes / 1024
    if kib < 1024:
        return f"{kib:.1f} KiB"
    return f"{kib / 1024:.1f} MiB"


def render_arena(report) -> str:
    """Markdown Pareto report of an arena run (``hydra-sim arena``).

    One table per T_RH rung — slowdown, storage split by medium,
    oracle verdict — with the per-rung (slowdown, storage) Pareto
    frontier starred and summarized. Storage is at the simulated
    scale, so cross-tracker ratios (the frontier's currency) are
    exact while absolute sizes shrink with ``scale``.
    """
    lines: List[str] = [
        "# Tracker arena — slowdown / storage / security Pareto report",
        "",
        f"- scale: {report.scale} | engine: {report.engine}",
        f"- workloads (slowdown axis): {', '.join(report.workloads)}",
        f"- T_RH ladder: {', '.join(str(t) for t in report.trh_ladder)}",
        "",
        "Verdicts are judged against each tracker's declared security"
        " class; `*` marks the per-rung Pareto frontier over"
        " (slowdown, SRAM+LLC storage) among oracle-clean cells.",
    ]
    for trh in report.trh_ladder:
        cells = sorted(
            report.rung(trh),
            key=lambda c: (not c.pareto, c.slowdown_percent),
        )
        lines.extend(
            [
                "",
                f"## T_RH = {trh}",
                "",
                "| tracker | class | slowdown | SRAM | LLC | DRAM |"
                " oracle |",
                "|---|---|---|---|---|---|---|",
            ]
        )
        for cell in cells:
            star = " *" if cell.pareto else ""
            verdict = cell.verdict
            if cell.total_violations:
                verdict += f" ({cell.total_violations} violations)"
            lines.append(
                f"| {cell.spec}{star} | {cell.security_class} |"
                f" {cell.slowdown_percent:.2f}% |"
                f" {_kib(cell.sram_bytes)} |"
                f" {_kib(cell.llc_reserved_bytes)} |"
                f" {_kib(cell.dram_reserved_bytes)} |"
                f" {verdict} |"
            )
        frontier = report.pareto_frontier(trh)
        if frontier:
            lines.append("")
            lines.append(
                "Pareto frontier: "
                + ", ".join(cell.spec for cell in frontier)
            )
    lines.append("")
    return "\n".join(lines)


def render_manifest(manifest_path: Path) -> str:
    """Markdown summary of a sweep manifest (``report --manifest``).

    A manifest is the provenance log sweeps append to (see
    :mod:`repro.obs.manifest`): one JSON line per grid cell. The
    summary answers "what ran, on which engine, at what cost" without
    the reader parsing JSON lines by hand.
    """
    from repro.obs.manifest import read_records, summarize_manifest

    records, skipped = read_records(manifest_path)
    summary = summarize_manifest(records)
    lines: List[str] = [
        f"# Sweep manifest — {manifest_path}",
        "",
        f"- cells: {summary['cells']}"
        f" ({summary['cache_hits']} cache hits,"
        f" {summary['simulated']} simulated)",
        f"- simulated wall time: {summary['simulated_wall_s']:.2f} s",
        f"- simulated requests: {summary['simulated_requests']}",
        f"- simulation throughput: "
        f"{summary['requests_per_second']:,.0f} req/s",
    ]
    if skipped:
        lines.append(f"- skipped lines (corrupt/unreadable): {skipped}")
    lines.extend(["", "| engine | cells |", "|---|---|"])
    for engine, count in sorted(summary["by_engine"].items()):
        lines.append(f"| {engine} | {count} |")
    lines.extend(["", "| spec | cells |", "|---|---|"])
    for spec, count in sorted(summary["by_spec"].items()):
        lines.append(f"| {spec} | {count} |")
    slowest = sorted(
        (r for r in records if not r.from_cache),
        key=lambda r: r.wall_time_s,
        reverse=True,
    )[:5]
    if slowest:
        lines.extend(
            ["", "## Slowest simulated cells", "",
             "| spec | workload | engine | wall (s) | req/s |", "|---|---|---|---|---|"]
        )
        for record in slowest:
            lines.append(
                f"| {record.spec} | {record.workload} | {record.engine} |"
                f" {record.wall_time_s:.2f} | {record.throughput_rps:,.0f} |"
            )
    lines.append("")
    return "\n".join(lines)
