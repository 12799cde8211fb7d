"""bench-compare tests: the regression gate's pass/fail semantics."""

import copy
import json

import pytest

from repro.errors import ExperimentError
from repro.obs.benchcmp import (
    Tolerance,
    compare_dirs,
    compare_manifest,
    load_manifests,
)
from repro.obs.hist import Histogram


def _manifest() -> dict:
    hist = Histogram("handshake_latency.client")
    for value in (0.010, 0.020, 0.040, 0.080):
        hist.record(value)
    return {
        "name": "smoke",
        "counters": {"server": {"SynsRecv": 100, "EstabNormal": 40}},
        "perf": {"wall_seconds": 2.0, "events_per_second": 50000.0,
                 "sim_wall_ratio": 30.0},
        "histograms": {
            "handshake_latency.client": hist.as_payload(),
        },
        "runner": {"histograms": {
            "handshake_latency.client": hist.as_payload()}},
    }


def _write(directory, name, body) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"BENCH_{name}.json").write_text(json.dumps(body))


class TestCompareManifest:
    def test_identical_manifests_have_no_findings(self):
        base = _manifest()
        assert compare_manifest("smoke", base, copy.deepcopy(base),
                                Tolerance()) == []

    def test_counter_drift_is_regression_either_direction(self):
        for new_value in (99, 101):
            current = copy.deepcopy(_manifest())
            current["counters"]["server"]["SynsRecv"] = new_value
            findings = compare_manifest("smoke", _manifest(), current,
                                        Tolerance())
            assert any(f.severity == "regression" and
                       f.metric == "counters.server.SynsRecv"
                       for f in findings)

    def test_perf_is_direction_aware(self):
        current = copy.deepcopy(_manifest())
        current["perf"]["wall_seconds"] = 4.0        # slower: regression
        current["perf"]["events_per_second"] = 80000.0  # faster: note
        findings = compare_manifest("smoke", _manifest(), current,
                                    Tolerance())
        by_metric = {f.metric: f.severity for f in findings}
        assert by_metric["perf.wall_seconds"] == "regression"
        assert by_metric["perf.events_per_second"] == "note"

    def test_perf_within_tolerance_passes(self):
        current = copy.deepcopy(_manifest())
        current["perf"]["wall_seconds"] = 2.2   # +10% < 30% tolerance
        assert compare_manifest("smoke", _manifest(), current,
                                Tolerance()) == []

    def test_quantile_increase_is_regression(self):
        current = copy.deepcopy(_manifest())
        block = current["histograms"]["handshake_latency.client"]
        block["quantiles"]["p95"] *= 10.0
        findings = compare_manifest("smoke", _manifest(), current,
                                    Tolerance())
        assert any(f.severity == "regression" and
                   f.metric == "histograms.handshake_latency.client.p95"
                   for f in findings)

    def test_quantile_improvement_is_note(self):
        current = copy.deepcopy(_manifest())
        block = current["histograms"]["handshake_latency.client"]
        block["quantiles"]["p95"] /= 10.0
        findings = compare_manifest("smoke", _manifest(), current,
                                    Tolerance())
        assert all(f.severity == "note" for f in findings)

    def test_histogram_count_drift_is_regression(self):
        current = copy.deepcopy(_manifest())
        current["histograms"]["handshake_latency.client"]["count"] = 3
        findings = compare_manifest("smoke", _manifest(), current,
                                    Tolerance())
        assert any(
            f.metric == "histograms.handshake_latency.client.count"
            for f in findings)

    def test_runner_block_histograms_compared(self):
        current = copy.deepcopy(_manifest())
        block = current["runner"]["histograms"]["handshake_latency.client"]
        block["quantiles"]["p99"] *= 10.0
        findings = compare_manifest("smoke", _manifest(), current,
                                    Tolerance())
        assert any(f.metric.startswith("runner.histograms.")
                   for f in findings)


class TestOneSidedEntries:
    """Entries present on only one side are reported, never silently
    skipped: baseline-only is lost coverage (a regression), current-only
    is a note."""

    def test_histogram_missing_from_current_is_regression(self):
        current = copy.deepcopy(_manifest())
        del current["histograms"]["handshake_latency.client"]
        findings = compare_manifest("smoke", _manifest(), current,
                                    Tolerance())
        (finding,) = [f for f in findings
                      if f.metric ==
                      "histograms.handshake_latency.client"]
        assert finding.severity == "regression"
        assert "lost" in finding.message

    def test_histogram_only_in_current_is_note(self):
        current = copy.deepcopy(_manifest())
        extra = Histogram("puzzle_solve.client")
        extra.record(0.05)
        current["histograms"]["puzzle_solve.client"] = extra.as_payload()
        findings = compare_manifest("smoke", _manifest(), current,
                                    Tolerance())
        (finding,) = [f for f in findings
                      if f.metric == "histograms.puzzle_solve.client"]
        assert finding.severity == "note"
        assert "new histogram" in finding.message

    def test_perf_key_missing_from_current_is_regression(self):
        current = copy.deepcopy(_manifest())
        del current["perf"]["events_per_second"]
        findings = compare_manifest("smoke", _manifest(), current,
                                    Tolerance())
        (finding,) = [f for f in findings
                      if f.metric == "perf.events_per_second"]
        assert finding.severity == "regression"

    def test_perf_key_only_in_current_is_note(self):
        base = _manifest()
        del base["perf"]["sim_wall_ratio"]
        findings = compare_manifest("smoke", base, _manifest(),
                                    Tolerance())
        (finding,) = [f for f in findings
                      if f.metric == "perf.sim_wall_ratio"]
        assert finding.severity == "note"


def _series_manifest() -> dict:
    body = _manifest()
    body["timeseries"] = {
        "rate.SynsRecv": {"name": "rate.SynsRecv", "kind": "rate",
                          "cadence": 0.5, "capacity": 2048, "dropped": 0,
                          "samples": [[0.5, 10.0], [1.0, 12.0]]},
    }
    return body


class TestCompareTimeseries:
    def test_identical_series_pass(self):
        base = _series_manifest()
        assert compare_manifest("smoke", base, copy.deepcopy(base),
                                Tolerance()) == []

    def test_series_missing_from_current_is_regression(self):
        current = copy.deepcopy(_series_manifest())
        del current["timeseries"]["rate.SynsRecv"]
        findings = compare_manifest("smoke", _series_manifest(), current,
                                    Tolerance())
        (finding,) = [f for f in findings
                      if f.metric == "timeseries.rate.SynsRecv"]
        assert finding.severity == "regression"
        assert "lost telemetry coverage" in finding.message

    def test_series_only_in_current_is_note(self):
        findings = compare_manifest("smoke", _manifest(),
                                    _series_manifest(), Tolerance())
        (finding,) = [f for f in findings
                      if f.metric == "timeseries.rate.SynsRecv"]
        assert finding.severity == "note"

    def test_sample_count_drift_is_regression(self):
        current = copy.deepcopy(_series_manifest())
        current["timeseries"]["rate.SynsRecv"]["samples"].append(
            [1.5, 9.0])
        findings = compare_manifest("smoke", _series_manifest(), current,
                                    Tolerance())
        assert any(f.metric == "timeseries.rate.SynsRecv.samples" and
                   f.severity == "regression" for f in findings)

    def test_mass_drift_is_regression(self):
        current = copy.deepcopy(_series_manifest())
        current["timeseries"]["rate.SynsRecv"]["samples"][0][1] = 11.0
        findings = compare_manifest("smoke", _series_manifest(), current,
                                    Tolerance())
        assert any(f.metric == "timeseries.rate.SynsRecv.mass" and
                   f.severity == "regression" for f in findings)


class TestCompareDirs:
    def test_self_compare_passes(self, tmp_path):
        _write(tmp_path / "base", "smoke", _manifest())
        _write(tmp_path / "cur", "smoke", _manifest())
        report = compare_dirs(tmp_path / "base", tmp_path / "cur")
        assert report.passed
        assert report.manifests == ["smoke"]
        assert report.render().endswith("bench-compare: PASS")

    def test_missing_manifest_is_regression(self, tmp_path):
        _write(tmp_path / "base", "smoke", _manifest())
        (tmp_path / "cur").mkdir()
        report = compare_dirs(tmp_path / "base", tmp_path / "cur")
        assert not report.passed
        assert "lost benchmark coverage" in report.render()

    def test_new_manifest_is_note(self, tmp_path):
        for side in ("base", "cur"):
            _write(tmp_path / side, "smoke", _manifest())
        _write(tmp_path / "cur", "extra", _manifest())
        report = compare_dirs(tmp_path / "base", tmp_path / "cur")
        assert report.passed
        (note,) = [f for f in report.findings if f.severity == "note"]
        assert note.manifest == "extra"

    def test_session_rollup_skipped(self, tmp_path):
        for side in ("base", "cur"):
            _write(tmp_path / side, "smoke", _manifest())
        _write(tmp_path / "base", "session", {"manifests": ["a", "b"]})
        report = compare_dirs(tmp_path / "base", tmp_path / "cur")
        assert report.passed
        assert report.manifests == ["smoke"]

    def test_nothing_compared_fails(self, tmp_path):
        # Two empty directories, and two that share no manifest: a
        # comparison that compares nothing must not pass.
        (tmp_path / "base").mkdir()
        (tmp_path / "cur").mkdir()
        report = compare_dirs(tmp_path / "base", tmp_path / "cur")
        assert not report.passed
        assert "nothing compared" in report.render()
        _write(tmp_path / "cur", "smoke", _manifest())
        assert not compare_dirs(tmp_path / "base", tmp_path / "cur").passed

    def test_prefix_matching_nothing_fails(self, tmp_path):
        for side in ("base", "cur"):
            _write(tmp_path / side, "smoke", _manifest())
        assert compare_dirs(tmp_path / "base", tmp_path / "cur",
                            prefix="smo").passed
        report = compare_dirs(tmp_path / "base", tmp_path / "cur",
                              prefix="micro_")
        assert not report.passed
        assert "no BENCH_micro_*.json manifest" in report.render()

    def test_regression_renders_fail_marker(self, tmp_path):
        _write(tmp_path / "base", "smoke", _manifest())
        bad = _manifest()
        bad["counters"]["server"]["SynsRecv"] = 1
        _write(tmp_path / "cur", "smoke", bad)
        report = compare_dirs(tmp_path / "base", tmp_path / "cur")
        assert not report.passed
        assert "[FAIL]" in report.render()
        assert "FAIL (1 regression(s))" in report.render()

    def test_tolerance_widening_suppresses_finding(self, tmp_path):
        _write(tmp_path / "base", "smoke", _manifest())
        slow = _manifest()
        slow["perf"]["wall_seconds"] = 4.0
        _write(tmp_path / "cur", "smoke", slow)
        assert not compare_dirs(tmp_path / "base", tmp_path / "cur").passed
        assert compare_dirs(tmp_path / "base", tmp_path / "cur",
                            Tolerance(perf=2.0)).passed


class TestLoading:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_manifests(tmp_path / "nope")

    def test_invalid_json_raises(self, tmp_path):
        _write(tmp_path, "smoke", _manifest())
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        with pytest.raises(ExperimentError):
            load_manifests(tmp_path)

    def test_non_manifest_files_ignored(self, tmp_path):
        _write(tmp_path, "smoke", _manifest())
        (tmp_path / "notes.txt").write_text("hello")
        assert list(load_manifests(tmp_path)) == ["smoke"]
