"""Tests for the hydra-sim command-line interface."""

import os
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _config, build_parser, main
from repro.sim.config import SystemConfig
from repro.trackers.registry import MIN_TRH


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


#: Tracker specs the registry rejects, with a piece of its message.
BAD_TRACKER_SPECS = [
    (["run", "GUPS", "--tracker", "hydra@foo=3"], "no parameter 'foo'"),
    (["run", "--tracker", "nosuch"], "unknown tracker 'nosuch'"),
    (["run", "--tracker", "hydra@stream_chunk=4096"], "no parameter 'stream_chunk'"),
    (["sweep", "--tracker", "hydra@foo=3"], "no parameter 'foo'"),
    (["submit", "--trackers", "hydra,nosuch"], "unknown tracker 'nosuch'"),
    (["arena", "--trackers", "graphene@trh=0"], "must be >= 4"),
    (["run", "--tracker", "hydra@trh=3"], "must be >= 4"),
    (["run", "--trh", "0"], "must be >= 4"),
    (["storage", "--trh", "0"], "must be >= 4"),
    (["security", "--trh", "2"], "must be >= 4"),
    (["arena", "--trh-ladder", "166,3"], "must be >= 4"),
    (["fuzz", "--trackers", "nosuch"], "unknown tracker 'nosuch'"),
]


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--scale-denominator", "0"],
            ["run", "--scale-denominator", "-4"],
            ["sweep", "--scale-denominator", "x"],
            ["serve", "--workers", "-3"],
            ["run", "--attack", "bogus"],
            ["run", "--attack-rate", "-1"],
            ["run", "--attack-rate", "x"],
            ["fuzz", "--programs", "0"],
            ["fuzz", "--act-budget", "-5"],
            ["trace", "head", "README.md", "--count", "-3"],
            ["trace", "head", "README.md", "--start", "-3"],
            ["trace", "inspect", "README.md", "--hot-threshold", "-1"],
            ["trace", "record", "GUPS", "out.trc", "--chunk", "0"],
            ["arena", "--trh-ladder", "0"],
            ["arena", "--workloads", "bogus"],
            ["submit", "--workloads", "GUPS,bogus"],
        ],
        ids=" ".join,
    )
    def test_bad_count_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        BAD_TRACKER_SPECS,
        ids=[" ".join(argv) for argv, _ in BAD_TRACKER_SPECS],
    )
    def test_bad_tracker_spec_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err

    def test_cli_trh_is_the_spec_trh_system(self):
        """``--trh N`` describes the system ``hydra@trh=N`` is built
        for: ``SystemConfig.with_trh(N)``, one cache key."""
        parser = build_parser()
        base = SystemConfig(scale=1 / 256)
        for trh in range(MIN_TRH, 601):
            args = parser.parse_args(
                ["run", "--trh", str(trh), "--scale-denominator", "256"]
            )
            assert _config(args).cache_key() == base.with_trh(trh).cache_key()

    def test_tracker_lists_parse_to_specs(self):
        args = build_parser().parse_args(["submit", "--trackers", "baseline,hydra"])
        assert args.trackers == ["baseline", "hydra"]
        assert build_parser().parse_args(["submit"]).trackers == ["hydra"]
        assert build_parser().parse_args(["arena"]).trackers is None

    @pytest.mark.parametrize("command", ["submit", "arena", "fuzz"])
    def test_tracker_lists_keep_multi_parameter_specs(self, command):
        """A fragment with ``=`` but no ``@`` continues the previous
        spec's parameters."""
        args = build_parser().parse_args(
            [command, "--trackers", "hydra@rcc_kb=28,rcc_ways=8,baseline"]
        )
        assert args.trackers == ["hydra@rcc_kb=28,rcc_ways=8", "baseline"]
        args = build_parser().parse_args(
            [command, "--trackers", "graphene,hydra@trh=1000,rcc_kb=28"]
        )
        assert args.trackers == ["graphene", "hydra@trh=1000,rcc_kb=28"]

    @pytest.mark.parametrize(
        "trackers, message",
        [
            ("hydra@rcc_kb=28,foo=3", "no parameter 'foo'"),
            ("rcc_kb=28,hydra", "unknown tracker"),
            ("hydra,rcc_kb=28", "unknown tracker"),
        ],
    )
    def test_stray_parameter_fragment_is_a_usage_error(
        self, trackers, message, capsys
    ):
        with pytest.raises(SystemExit) as info:
            main(["submit", "--trackers", trackers])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err


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

    @pytest.mark.parametrize("denominator", ["1024", "4096"])
    def test_battery_that_does_not_fit_is_a_usage_error(
        self, denominator, capsys
    ):
        # 1/1024 has too few rows for the fixed thrash rows, 1/4096
        # too few for the rcc-thrash pattern's 2,000 distinct rows.
        with pytest.raises(SystemExit) as info:
            main(["security", "--scale-denominator", denominator])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith("hydra-sim: error: experiment sec5: ")
        assert captured.err.count("\n") == 1

    def test_bounds_refusal_names_the_scale_not_a_bounds_policy(self, capsys):
        # No command takes a bounds policy: the line names the geometry
        # limit and the remedy the command line has.
        with pytest.raises(SystemExit) as info:
            main(["security", "--scale-denominator", "1024"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "bounds=" not in err
        assert "outside geometry (0..4095)" in err
        assert "smaller --scale-denominator" in err
        assert err.count("\n") == 1


class TestExperimentCommand:
    def test_list_names(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "table1" in out

    def test_unknown_name_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["experiment", "fig99"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "unknown experiment 'fig99'" in err
        assert "fig5" in err and "sec5" in err

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

    def test_jobs_flag_reaches_the_runner(self, monkeypatch, capsys):
        import json

        from repro.sim import experiments

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setitem(
            experiments._REGISTRY, "probe", lambda runner: {"jobs": runner.jobs}
        )
        assert main(["experiment", "probe", "--jobs", "3"]) == 0
        assert json.loads(capsys.readouterr().out) == {"jobs": 3}


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

    def test_run_replays_trace_file(self, tmp_path, capsys):
        trc = tmp_path / "small.trc"
        assert main(
            ["trace", "record", "leela", str(trc),
             "--scale-denominator", "256"]
        ) == 0
        capsys.readouterr()
        code = main(
            ["run", "--trace-file", str(trc),
             "--scale-denominator", "256"]
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


#: Commands naming an input file that is missing or malformed, with
#: a piece of the reader's message. ``{bad}`` is a text trace whose
#: first request line does not parse.
BAD_INPUT_FILES = [
    (["trace", "inspect", "{missing}"], "no trace file at"),
    (["trace", "convert", "{missing}", "{out}"], "no trace file at"),
    (["trace", "head", "{missing}"], "no trace file at"),
    (["trace", "inspect", "{bad}"], "bad.trc:2: expected '<gap_ns> <R|W>"),
    (["trace", "convert", "{bad}", "{out}"], "bad.trc:2: expected"),
    (["trace", "head", "{bad}"], "bad.trc:2: expected"),
    (["run", "--trace-file", "{missing}"], "no trace file at"),
    (["run", "--trace-file", "{bad}"], "bad.trc:2: expected"),
    (["report", "--manifest", "{missing}"], "No such file or directory"),
]


@pytest.mark.parametrize(
    "argv, message",
    BAD_INPUT_FILES,
    ids=[" ".join(argv) for argv, _ in BAD_INPUT_FILES],
)
def test_bad_input_file_is_a_one_line_usage_error(argv, message, tmp_path, capsys):
    bad = tmp_path / "bad.trc"
    bad.write_text("# header\nthis is not a request\n")
    paths = dict(
        missing=str(tmp_path / "missing.trc"),
        bad=str(bad),
        out=str(tmp_path / "out.trc"),
    )
    with pytest.raises(SystemExit) as info:
        main([word.format(**paths) for word in argv])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("hydra-sim: error: ")
    assert err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_bad_repro_jobs_is_a_one_line_usage_error(value, tmp_path, monkeypatch, capsys):
    """An unset ``--jobs`` defers to $REPRO_JOBS; a malformed value is
    refused by name before anything is simulated or cached."""
    monkeypatch.setenv("REPRO_JOBS", value)
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--tracker", "baseline", "--scale-denominator", "4096"])
    assert info.value.code == 2
    assert capsys.readouterr().err == (
        f"hydra-sim: error: REPRO_JOBS must be an integer >= 0, got {value!r}\n"
    )
    assert not any(tmp_path.iterdir())


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

    def test_run_rejects_unknown_attack_spec(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(
                ["run", "leela", "--tracker", "hydra",
                 "--scale-denominator", "256",
                 "--attack", "nonsense"]
            )
        assert info.value.code == 2
        assert "unknown attack 'nonsense'" in capsys.readouterr().err

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
