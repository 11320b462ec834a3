"""End-to-end observability: observed runs, parity, sweep manifests.

The layer's contract (DESIGN.md §10): observability changes what you
can *see*, never what the simulation *does* — an observed run's
``RunResult`` is equal (and serializes byte-identically) to the same
run unobserved, and the per-window series regenerates Figure 6 exactly.
"""

import numpy as np
import pytest

from repro.obs import OBS_ENV_VAR, obs_enabled, read_manifest
from repro.sim import ExperimentRunner, SystemConfig, simulate
from repro.workloads.trace import Trace

CONFIG = SystemConfig(scale=1 / 128, n_windows=1)


def make_trace(rows, gap=50.0, name="synthetic"):
    n = len(rows)
    return Trace(
        gaps_ns=np.full(n, gap),
        rows=np.asarray(rows),
        lines=np.ones(n, dtype=np.int32),
        writes=np.zeros(n, dtype=bool),
        name=name,
    )


def hammer_trace(n_pairs=20000, gap=30.0):
    """Sustained double-sided hammer long enough to span >= 2 windows."""
    return make_trace([7, 9] * n_pairs, gap=gap, name="hammer")


class TestObsEnabled:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(OBS_ENV_VAR, raising=False)
        assert not obs_enabled()

    @pytest.mark.parametrize("value", ["0", "", "false", "no", "off"])
    def test_falsey_values(self, monkeypatch, value):
        monkeypatch.setenv(OBS_ENV_VAR, value)
        assert not obs_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv(OBS_ENV_VAR, value)
        assert obs_enabled()


class TestObservedRunParity:
    """Observability must be invisible to the result itself."""

    @pytest.mark.parametrize("engine", ["fast", "queued"])
    def test_results_identical_with_and_without(self, engine):
        trace = hammer_trace(n_pairs=2000)
        plain = simulate(trace, CONFIG, "hydra", engine=engine, observe=False)
        observed = simulate(
            trace, CONFIG, "hydra", engine=engine, observe=True
        )
        assert plain.observability is None
        assert observed.observability is not None
        assert observed == plain
        assert observed.to_dict() == plain.to_dict()

    def test_env_var_enables_observation(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        result = simulate(hammer_trace(n_pairs=200), CONFIG, "baseline")
        assert result.observability is not None
        assert result.window_series is not None

    def test_explicit_observe_false_beats_env(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        result = simulate(
            hammer_trace(n_pairs=200), CONFIG, "baseline", observe=False
        )
        assert result.observability is None
        assert result.window_series is None


class TestWindowSeries:
    def test_attack_trace_series_sanity(self):
        trace = hammer_trace()
        result = simulate(trace, CONFIG, "hydra", observe=True)
        series = result.window_series
        assert len(series) >= 2  # the hammer spans multiple windows

        # Windows tile the run: contiguous, in order, full-length except
        # possibly the last.
        for i, sample in enumerate(series):
            assert sample.index == i
            assert sample.end_ns > sample.start_ns
            if i > 0:
                assert sample.start_ns == series[i - 1].end_ns
            if i < len(series) - 1:
                assert sample.duration_ns == pytest.approx(series.period_ns)

        # Per-window deltas sum back to the run's whole-run counters.
        totals = series.totals()
        assert totals["tracker_mitigations"] == result.mitigations
        assert totals["mc_victim_refreshes"] == result.victim_refreshes
        assert totals["mc_meta_accesses"] == result.meta_accesses

        # A sustained hammer triggers mitigations beyond the first window.
        mitigation_windows = [
            s for s in series if s.get("tracker_mitigations") > 0
        ]
        assert len(mitigation_windows) >= 2

    def test_fig6_regenerated_exactly(self):
        result = simulate(hammer_trace(), CONFIG, "hydra", observe=True)
        assert (
            result.window_series.hydra_distribution()
            == result.extra["distribution"]
            == result.hydra_distribution
        )

    def test_metrics_published(self):
        result = simulate(hammer_trace(n_pairs=2000), CONFIG, "hydra", observe=True)
        metrics = result.observability.metrics
        assert metrics["tracker_mitigations"]["value"] == result.mitigations
        assert metrics["mc_meta_accesses"]["value"] == result.meta_accesses
        assert metrics["hydra_rct_row_counts"]["kind"] == "histogram"
        assert metrics["feedback_chain_length"]["kind"] == "histogram"
        assert metrics["hydra_rcc_hit_rate"]["kind"] == "gauge"

    def test_cra_tracker_observable_too(self):
        result = simulate(
            hammer_trace(n_pairs=2000), CONFIG, "cra", observe=True
        )
        totals = result.window_series.totals()
        assert totals["tracker_mitigations"] == result.mitigations
        assert "cra_cache_misses" in totals


class TestSweepManifest:
    def test_run_grid_appends_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        runner = ExperimentRunner(
            CONFIG, cache_dir=tmp_path / "cache", manifest_path=manifest
        )
        runner.run_grid(["baseline", "hydra"], ["xz", "mcf"], progress=False)
        records, skipped = read_manifest(manifest)
        assert skipped == 0
        assert len(records) == 4
        assert all(not r.from_cache for r in records)
        assert all(r.engine == "fast" for r in records)
        assert {(r.spec, r.workload) for r in records} == {
            ("baseline", "xz"),
            ("baseline", "mcf"),
            ("hydra", "xz"),
            ("hydra", "mcf"),
        }
        assert all(r.throughput_rps > 0 for r in records)

        # A rerun appends cache-hit records for the same cells.
        rerun = ExperimentRunner(
            CONFIG, cache_dir=tmp_path / "cache", manifest_path=manifest
        )
        rerun.run_grid(["baseline", "hydra"], ["xz", "mcf"], progress=False)
        records, _ = read_manifest(manifest)
        assert len(records) == 8
        assert sum(r.from_cache for r in records) == 4

    def test_no_manifest_builds_no_records(self, tmp_path, monkeypatch):
        """Without a manifest, run_grid never builds a record, on the
        simulate path or the cache-hit path."""
        monkeypatch.delenv("REPRO_MANIFEST", raising=False)
        monkeypatch.delenv(OBS_ENV_VAR, raising=False)

        def forbidden(**fields):
            raise AssertionError("record built with no manifest configured")

        monkeypatch.setattr("repro.sim.sweep.make_record", forbidden)
        for _ in range(2):  # cold, then every cell a disk-cache hit
            runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
            assert runner.manifest_path is None
            runner.run_grid(["baseline", "hydra"], ["xz"], progress=False)

    def test_manifest_records_match_cells(self, tmp_path, monkeypatch):
        """With a manifest, one record per cell, built from its result."""
        import repro.sim.sweep as sweep

        built = []
        real = sweep.make_record

        def spy(**fields):
            built.append(fields)
            return real(**fields)

        monkeypatch.setattr("repro.sim.sweep.make_record", spy)
        manifest = tmp_path / "manifest.jsonl"
        runner = ExperimentRunner(
            CONFIG, cache_dir=tmp_path / "cache", manifest_path=manifest
        )
        grid = runner.run_grid(["baseline", "hydra"], ["xz"], progress=False)
        records, _ = read_manifest(manifest)
        assert len(built) == len(records) == 2
        for record in records:
            result = grid[record.spec][record.workload]
            assert record.cache_key == runner._key(record.spec, record.workload)
            assert record.requests == result.requests
            assert record.end_time_ns == result.end_time_ns
            assert not record.from_cache

    def test_no_manifest_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_MANIFEST", raising=False)
        monkeypatch.delenv(OBS_ENV_VAR, raising=False)
        runner = ExperimentRunner(CONFIG, cache_dir=tmp_path)
        assert runner.manifest_path is None
        runner.run_grid(["baseline"], ["xz"], progress=False)
        assert not (tmp_path / "manifest.jsonl").exists()
