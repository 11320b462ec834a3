"""Tests for the hydra-sim command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.memctrl import ENGINES


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

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


class TestProfileCommand:
    def test_engine_flag_parses_all_engines(self):
        for engine in ENGINES:
            args = build_parser().parse_args(
                ["profile", "leela", "--engine", engine]
            )
            assert args.engine == engine

    def test_profile_queued_engine_passthrough(self, capsys):
        code = main(
            ["profile", "leela", "--tracker", "hydra",
             "--scale-denominator", "256", "--engine", "queued",
             "--limit", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The profiled cell ran on the requested engine...
        assert "hydra/queued" in out
        # ...and the cProfile report follows.
        assert "tottime" in out


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
