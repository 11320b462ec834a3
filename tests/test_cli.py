"""Tests for the hydra-sim command-line interface."""

import os
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_profile_subcommand_is_gone(self):
        # Per-layer timing lives in the e2ebench traced run.
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["profile"])
        assert info.value.code == 2

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "quake3"])

    def test_jobs_flag_parses(self):
        args = build_parser().parse_args(["sweep", "--jobs", "4"])
        assert args.jobs == 4

    def test_negative_jobs_rejected_cleanly(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--jobs", "-1"])

    def test_jobs_defaults_to_env_resolution(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs is None  # defer to REPRO_JOBS, then serial


class TestStorageCommand:
    def test_prints_tables(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "56.5 KB" in out
        assert "Graphene" in out


class TestSecurityCommand:
    def test_all_patterns_secure(self, capsys):
        assert main(["security", "--scale-denominator", "256"]) == 0
        out = capsys.readouterr().out
        assert "VIOLATED" not in out
        assert "rct-region" in out


class TestExperimentCommand:
    def test_list_names(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "table1" in out

    def test_analytic_experiment_runs(self, capsys):
        assert main(["experiment", "table4"]) == 0
        assert "56.5" in capsys.readouterr().out

    @pytest.mark.parametrize("before", [None, "5"])
    def test_jobs_flag_does_not_leak_into_the_environment(
        self, before, monkeypatch, capsys
    ):
        # setenv first so monkeypatch restores the caller's value even
        # when the command under test leaks one.
        monkeypatch.setenv("REPRO_JOBS", "placeholder")
        if before is None:
            monkeypatch.delenv("REPRO_JOBS")
        else:
            monkeypatch.setenv("REPRO_JOBS", before)
        assert main(["experiment", "table4", "--jobs", "3"]) == 0
        capsys.readouterr()
        assert os.environ.get("REPRO_JOBS") == before


class TestReportCommand:
    def test_renders_from_empty_results(self, tmp_path, capsys):
        assert (
            main(["report", "--results-dir", str(tmp_path / "none")]) == 0
        )
        assert "Reproduction report" in capsys.readouterr().out

    def test_writes_output_file(self, tmp_path):
        out = tmp_path / "report.md"
        assert (
            main(
                [
                    "report",
                    "--results-dir",
                    str(tmp_path),
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        assert out.exists()


class TestRunCommand:
    def test_run_small_workload(self, capsys):
        code = main(
            ["run", "leela", "--tracker", "hydra",
             "--scale-denominator", "256"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "mitigations" in out

    def test_workload_defaults_to_gups(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "GUPS"

    def test_run_streamed_matches_materialized(self, capsys):
        """--stream-chunk changes memory behaviour, not results."""
        base_args = ["run", "leela", "--scale-denominator", "256"]
        assert main(base_args) == 0
        materialized = capsys.readouterr().out
        assert main(base_args + ["--stream-chunk", "700"]) == 0
        streamed = capsys.readouterr().out
        assert streamed == materialized

    def test_run_replays_trace_file(self, tmp_path, capsys):
        trc = tmp_path / "small.trc"
        assert main(
            ["trace", "record", "leela", str(trc),
             "--scale-denominator", "256"]
        ) == 0
        capsys.readouterr()
        code = main(
            ["run", "--trace-file", str(trc),
             "--scale-denominator", "256", "--stream-chunk", "700"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "workload          : small" in out
        assert "execution time" in out


class TestTraceCommand:
    def _record(self, destination, capsys):
        assert main(
            ["trace", "record", "leela", str(destination),
             "--scale-denominator", "256", "--chunk", "500"]
        ) == 0
        return capsys.readouterr().out

    def test_record_and_inspect_text(self, tmp_path, capsys):
        trc = tmp_path / "leela.trc"
        out = self._record(trc, capsys)
        assert "external text" in out
        assert trc.exists()
        assert main(["trace", "inspect", str(trc)]) == 0
        out = capsys.readouterr().out
        assert "trace             : leela" in out
        assert "activations" in out
        assert "unique rows" in out

    def test_convert_roundtrip_all_formats(self, tmp_path, capsys):
        """text -> chunked -> npz -> text preserves the trace exactly."""
        import numpy as np

        from repro.workloads.streaming import read_external_trace

        trc = tmp_path / "leela.trc"
        self._record(trc, capsys)
        chunked = tmp_path / "chunked"
        assert main(
            ["trace", "convert", str(trc), str(chunked), "--chunk", "500"]
        ) == 0
        npz = tmp_path / "leela.npz"
        assert main(["trace", "convert", str(chunked), str(npz)]) == 0
        back = tmp_path / "back.trc"
        assert main(["trace", "convert", str(npz), str(back)]) == 0
        capsys.readouterr()
        original = read_external_trace(trc)
        roundtripped = read_external_trace(back)
        np.testing.assert_array_equal(roundtripped.gaps_ns, original.gaps_ns)
        np.testing.assert_array_equal(roundtripped.rows, original.rows)
        np.testing.assert_array_equal(roundtripped.lines, original.lines)
        np.testing.assert_array_equal(roundtripped.writes, original.writes)

    def test_head_slices_without_loading(self, tmp_path, capsys):
        trc = tmp_path / "leela.trc"
        self._record(trc, capsys)
        assert main(
            ["trace", "head", str(trc), "-n", "4", "--start", "2"]
        ) == 0
        out = capsys.readouterr().out
        payload = [
            line for line in out.splitlines() if not line.startswith("#")
        ]
        assert len(payload) == 4
        for line in payload:
            fields = line.split()
            assert len(fields) == 4
            assert fields[1] in ("R", "W")

    def test_inspect_chunked_matches_text(self, tmp_path, capsys):
        trc = tmp_path / "leela.trc"
        self._record(trc, capsys)
        chunked = tmp_path / "chunked"
        main(["trace", "convert", str(trc), str(chunked), "--chunk", "500"])
        capsys.readouterr()
        main(["trace", "inspect", str(trc)])
        text_stats = capsys.readouterr().out.splitlines()[1:]
        main(["trace", "inspect", str(chunked)])
        chunked_stats = capsys.readouterr().out.splitlines()[1:]
        assert chunked_stats == text_stats


class TestAttackCommands:
    def test_list_attacks_prints_registry(self, capsys):
        assert main(["list-attacks"]) == 0
        out = capsys.readouterr().out
        assert "single_sided" in out
        assert "many_sided" in out
        assert "aggs" in out

    def test_run_with_attack_spec(self, capsys):
        code = main(
            ["run", "leela", "--tracker", "hydra",
             "--scale-denominator", "256",
             "--attack", "single_sided@hammers=500"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "single_sided" in out
        assert "execution time" in out

    def test_run_rejects_unknown_attack_spec(self):
        with pytest.raises(ValueError, match="unknown attack"):
            main(
                ["run", "leela", "--tracker", "hydra",
                 "--scale-denominator", "256",
                 "--attack", "nonsense"]
            )

    def test_arena_attack_flag_is_repeatable(self):
        args = build_parser().parse_args(
            ["arena", "--attack", "single",
             "--attack", "many_sided@aggs=4,rounds=600"]
        )
        assert args.attack == ["single", "many_sided@aggs=4,rounds=600"]

    def test_fuzz_smoke(self, tmp_path, capsys):
        code = main(
            ["fuzz", "--trackers", "graphene", "--programs", "2",
             "--corpus-seed", "9", "--scale-denominator", "256",
             "--jobs", "0",
             "--json-out", str(tmp_path / "fuzz.json"),
             "--manifest", str(tmp_path / "fuzz.jsonl")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "graphene" in out
        assert (tmp_path / "fuzz.json").exists()
        assert (tmp_path / "fuzz.jsonl").exists()


#: (subcommand, flag) pairs whose handler never reads the flag.
REMOVED_FLAGS = [
    (["storage"], "--scale-denominator", "256"),
    (["storage"], "--engine", "queued"),
    (["storage"], "--jobs", "2"),
    (["storage"], "--stream-chunk", "64"),
    (["security"], "--engine", "queued"),
    (["security"], "--stream-chunk", "64"),
    (["security"], "--jobs", "2"),
    (["fuzz"], "--engine", "queued"),
    (["fuzz"], "--stream-chunk", "64"),
    (["run"], "--jobs", "2"),
    (["submit"], "--jobs", "2"),
    (["arena"], "--trh", "1000"),
    (["trace", "record", "GUPS", "out.trc"], "--stream-chunk", "64"),
    (["trace", "record", "GUPS", "out.trc"], "--engine", "queued"),
    (["trace", "record", "GUPS", "out.trc"], "--jobs", "2"),
    (["trace", "record", "GUPS", "out.trc"], "--trh", "1000"),
]


@pytest.mark.parametrize(
    "command, flag, value",
    REMOVED_FLAGS,
    ids=[f"{' '.join(c[:2])} {f}" for c, f, _ in REMOVED_FLAGS],
)
def test_subcommand_refuses_flag_its_handler_ignores(command, flag, value, capsys):
    build_parser().parse_args(command)
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(command + [f"{flag}={value}"])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}=" in capsys.readouterr().err


REPO = Path(__file__).resolve().parents[1]
DOCUMENTED = [
    ".github/workflows/ci.yml",
    "README.md",
    ".claude/skills/verify/SKILL.md",
]


#: A shell line running the CLI, after any VAR=value assignments.
COMMAND_LINE = re.compile(
    r"^\s*(?:\w+=\S*\s+)*(?:hydra-sim|python -m repro\.cli)\s+(.*)$"
)

SHELL_OPERATORS = {"&", "&&", "|", "||", ";", ">", ">>"}


def documented_command_lines():
    """Every ``hydra-sim``/``python -m repro.cli`` line in the docs, as
    the argument list after the program name."""
    found = []
    for name in DOCUMENTED:
        text = (REPO / name).read_text().replace("\\\n", " ")
        for line in text.splitlines():
            match = COMMAND_LINE.match(line)
            if match:
                words = shlex.split(match[1], comments=True)
                ends = [i for i, w in enumerate(words) if w in SHELL_OPERATORS]
                found.append((name, words[: ends[0]] if ends else words))
    return found


def test_documented_command_lines_parse():
    lines = documented_command_lines()
    assert len(lines) > 30
    for source, argv in lines:
        if "--help" in argv:
            continue
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"{source}: hydra-sim {' '.join(argv)} does not parse")
