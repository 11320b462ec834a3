"""Run manifests: JSON-lines provenance records for sweep cells."""

import json

import pytest

from repro.obs import (
    MANIFEST_ENV_VAR,
    MANIFEST_SCHEMA_VERSION,
    OBS_ENV_VAR,
    ArenaOracleRecord,
    ManifestRecord,
    ManifestWriter,
    make_record,
    read_records,
    resolve_manifest_path,
    summarize_manifest,
)


def record(**overrides) -> ManifestRecord:
    base = dict(
        cache_key="abc123",
        spec="hydra@trh=500",
        workload="xz",
        engine="fast",
        from_cache=False,
        wall_time_s=2.0,
        requests=1000,
        end_time_ns=5e6,
    )
    base.update(overrides)
    return make_record(**base)


class TestManifestRecord:
    def test_throughput_derived_for_simulated_cells(self):
        assert record().throughput_rps == pytest.approx(500.0)

    def test_cache_hits_report_zero_throughput(self):
        assert record(from_cache=True).throughput_rps == 0.0
        assert record(wall_time_s=0.0).throughput_rps == 0.0

    def test_dict_roundtrip(self):
        rec = record()
        assert ManifestRecord.from_dict(rec.to_dict()) == rec

    def test_from_dict_drops_unknown_keys(self):
        data = record().to_dict()
        data["added_by_a_newer_writer"] = "ignored"
        assert ManifestRecord.from_dict(data) == record()

    def test_schema_version_stamped(self):
        assert record().schema_version == MANIFEST_SCHEMA_VERSION
        assert record().to_dict()["schema_version"] == MANIFEST_SCHEMA_VERSION

    def test_old_record_without_version_loads(self):
        data = record().to_dict()
        del data["schema_version"]
        del data["throughput_rps"]
        loaded = ManifestRecord.from_dict(data)
        assert loaded.schema_version == MANIFEST_SCHEMA_VERSION
        assert loaded.throughput_rps == 0.0


class TestWriterAndReader:
    def test_roundtrip_through_file(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        records = [record(), record(workload="mcf", from_cache=True)]
        assert ManifestWriter(path).append(records) == 2
        loaded, skipped = read_records(path)
        assert skipped == 0
        assert loaded == records

    def test_append_accumulates(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        writer = ManifestWriter(path)
        writer.append([record()])
        writer.append([record(workload="mcf")])
        loaded, _ = read_records(path)
        assert [r.workload for r in loaded] == ["xz", "mcf"]

    def test_empty_append_writes_nothing(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        assert ManifestWriter(path).append([]) == 0
        assert not path.exists()

    def test_writer_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "manifest.jsonl"
        ManifestWriter(path).append([record()])
        assert path.exists()

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        good = json.dumps(record().to_dict())
        path.write_text(
            good + "\nnot json at all\n\n" + '{"spec": "orphan"}\n' + good + "\n"
        )
        loaded, skipped = read_records(path)
        assert len(loaded) == 2
        assert skipped == 2  # the garbage line and the key-less dict


def arena_record(**overrides) -> ArenaOracleRecord:
    base = dict(
        spec="comet",
        trh=1000,
        security_class="deterministic",
        sequence="single",
        secure=True,
        violations=0,
        max_unmitigated=499,
        mitigations=2,
        activations=1258,
        exercised=True,
    )
    base.update(overrides)
    return ArenaOracleRecord(**base)


class TestInterleavedStreams:
    """One manifest file carries grid cells AND arena-oracle lines."""

    def test_readers_split_the_streams(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        writer = ManifestWriter(path)
        writer.append([record()])
        writer.append([arena_record(), arena_record(sequence="many")])
        writer.append([record(workload="mcf")])
        cells, cell_skipped = read_records(path)
        arena, arena_skipped = read_records(path, kind="arena-oracle")
        assert [r.workload for r in cells] == ["xz", "mcf"]
        assert cell_skipped == 0
        assert [r.sequence for r in arena] == ["single", "many"]
        assert arena_skipped == 0

    def test_arena_lines_are_not_corrupt_cells(self, tmp_path):
        """Foreign-kind lines must not count toward the skip total —
        they are a sibling stream, not damage."""
        path = tmp_path / "manifest.jsonl"
        ManifestWriter(path).append([arena_record()])
        cells, skipped = read_records(path)
        assert cells == []
        assert skipped == 0

    def test_arena_reader_ignores_cells_and_counts_garbage(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        ManifestWriter(path).append([record(), arena_record()])
        with path.open("a") as handle:
            handle.write("not json\n")
        arena, skipped = read_records(path, kind="arena-oracle")
        assert len(arena) == 1
        assert skipped == 1

    def test_arena_record_roundtrip(self):
        rec = arena_record(secure=False, violations=3)
        loaded = ArenaOracleRecord.from_dict(rec.to_dict())
        assert loaded == rec
        assert loaded.kind == "arena-oracle"

    def test_arena_record_tolerates_newer_keys(self):
        data = arena_record().to_dict()
        data["future_field"] = 1
        assert ArenaOracleRecord.from_dict(data) == arena_record()

    def test_summarize_sees_only_cells(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        ManifestWriter(path).append([record(), arena_record()])
        cells, _ = read_records(path)
        assert summarize_manifest(cells)["cells"] == 1


class TestSummarize:
    def test_aggregates(self):
        records = [
            record(),
            record(workload="mcf", wall_time_s=3.0, requests=2000),
            record(workload="lbm", from_cache=True),
            record(spec="baseline", engine="queued", from_cache=True),
        ]
        summary = summarize_manifest(records)
        assert summary["cells"] == 4
        assert summary["cache_hits"] == 2
        assert summary["simulated"] == 2
        assert summary["simulated_wall_s"] == pytest.approx(5.0)
        assert summary["simulated_requests"] == 3000
        assert summary["requests_per_second"] == pytest.approx(600.0)
        assert summary["by_engine"] == {"fast": 3, "queued": 1}
        assert summary["by_spec"] == {"hydra@trh=500": 3, "baseline": 1}

    def test_empty_manifest(self):
        summary = summarize_manifest([])
        assert summary["cells"] == 0
        assert summary["requests_per_second"] == 0.0


class TestResolveManifestPath:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(MANIFEST_ENV_VAR, str(tmp_path / "env.jsonl"))
        explicit = tmp_path / "explicit.jsonl"
        assert resolve_manifest_path(explicit, tmp_path) == explicit

    def test_env_var_next(self, tmp_path, monkeypatch):
        env_path = tmp_path / "env.jsonl"
        monkeypatch.setenv(MANIFEST_ENV_VAR, str(env_path))
        assert resolve_manifest_path(None, tmp_path) == env_path

    def test_obs_enabled_defaults_next_to_cache(self, tmp_path, monkeypatch):
        monkeypatch.delenv(MANIFEST_ENV_VAR, raising=False)
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        assert (
            resolve_manifest_path(None, tmp_path)
            == tmp_path / "manifest.jsonl"
        )

    def test_all_unset_means_no_manifest(self, tmp_path, monkeypatch):
        monkeypatch.delenv(MANIFEST_ENV_VAR, raising=False)
        monkeypatch.delenv(OBS_ENV_VAR, raising=False)
        assert resolve_manifest_path(None, tmp_path) is None
