"""CLI tests (argument parsing and the cheap subcommands)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_nash_defaults(self):
        args = build_parser().parse_args(["nash"])
        assert args.w_av == 140630.0
        assert args.alpha == 1.1
        assert args.k == 2

    def test_run_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "teardrop"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_nash_output(self, capsys):
        assert main(["nash"]) == 0
        out = capsys.readouterr().out
        assert "(k*, m*) = (2, 17)" in out
        assert "66966" in out

    def test_nash_custom_parameters(self, capsys):
        assert main(["nash", "--w-av", "1000", "--alpha", "1.0",
                     "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "l* = w_av/(alpha+1) = 500.0" in out

    def test_profile_output(self, capsys):
        assert main(["profile"]) == 0
        out = capsys.readouterr().out
        assert "cpu1" in out
        assert "w_av = 140630" in out
        assert "D4" in out


class TestTraceCommand:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.defense == "puzzles"
        assert args.attack == "syn"
        assert args.profile is False
        assert args.format == "text"
        assert args.output is None

    def test_trace_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--format", "svg"])

    def test_trace_rejects_unknown_defense(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--defense", "moat"])

    def test_trace_small_run(self, capsys, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        assert main(["trace", "--duration", "4", "--clients", "1",
                     "--attackers", "0", "--attack", "none",
                     "--flows", "2", "--jsonl", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "traced" in out
        assert "syn-in" in out
        assert "server handshakes:" in out
        assert "engine:" in out
        assert "latency histograms:" in out
        text = jsonl.read_text()
        assert text.count('"type":"trace"') > 0
        assert text.count('"type":"hist"') > 0
        assert text.count('"type":"span"') > 0

    def test_trace_chrome_format_emits_valid_trace_json(self, capsys):
        assert main(["trace", "--duration", "4", "--clients", "1",
                     "--attackers", "0", "--attack", "none",
                     "--flows", "2", "--format", "chrome"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert set(body) == {"traceEvents", "displayTimeUnit"}
        spans = [e for e in body["traceEvents"]
                 if e.get("cat") == "handshake"]
        assert spans
        assert all(e["ph"] == "X" for e in spans)

    def test_trace_chrome_output_file(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["trace", "--duration", "4", "--clients", "1",
                     "--attackers", "0", "--attack", "none",
                     "--flows", "2", "--format", "chrome",
                     "--output", str(path)]) == 0
        body = json.loads(path.read_text())
        assert body["traceEvents"]
        # stdout stays clean when writing to a file.
        assert capsys.readouterr().out == ""


class TestTraceTelemetry:
    def test_trace_telemetry_counter_tracks_in_chrome_export(
            self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["trace", "--duration", "4", "--clients", "1",
                     "--attackers", "0", "--attack", "none",
                     "--telemetry", "--format", "chrome",
                     "--output", str(path)]) == 0
        body = json.loads(path.read_text())
        counters = [e for e in body["traceEvents"]
                    if e.get("ph") == "C"]
        assert counters
        assert any(e["name"] == "rate.SynsRecv" for e in counters)
        assert all("value" in e["args"] for e in counters)

    def test_trace_telemetry_series_in_jsonl_and_stdout(
            self, capsys, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        assert main(["trace", "--duration", "4", "--clients", "1",
                     "--attackers", "0", "--attack", "none",
                     "--telemetry", "--jsonl", str(jsonl)]) == 0
        assert "telemetry:" in capsys.readouterr().out
        assert jsonl.read_text().count('"type":"series"') > 0


class TestTopCommand:
    def test_top_parser_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.status_file is None
        assert args.once is False
        assert args.interval == 1.0

    def test_top_once_without_status_file_fails(self, capsys, tmp_path):
        missing = tmp_path / "absent.json"
        assert main(["top", "--once",
                     "--status-file", str(missing)]) == 1
        assert "no status file" in capsys.readouterr().err

    def test_top_once_renders_status(self, capsys, tmp_path):
        from repro.runner import SweepMonitor

        path = tmp_path / "status.json"
        monitor = SweepMonitor(status_path=str(path), quiet=True)
        monitor.begin(["cell-a", "cell-b"], jobs=2)
        monitor.cell_done(0, {"x": 1}, wall_seconds=0.5)
        assert main(["top", "--once", "--status-file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tcp-puzzles sweep — running" in out
        assert "cells 1/2 done" in out
        assert "[done] cell-a" in out
        # --once renders plain: no ANSI clear-screen escapes.
        assert "\x1b" not in out


class TestSweepMonitorFlags:
    def test_sweep_parser_gains_monitor_flags(self):
        args = build_parser().parse_args(["sweep", "difficulty"])
        assert args.quiet is False
        assert args.live is False
        assert args.status_file is None

    def test_run_parser_gains_monitor_flags(self):
        args = build_parser().parse_args(
            ["run", "syn-flood", "--quiet", "--live"])
        assert args.quiet is True
        assert args.live is True

    def test_make_monitor_resolves_paths(self):
        from repro.cli import _make_monitor
        from repro.runner import DEFAULT_STATUS_PATH

        args = build_parser().parse_args(["sweep", "iot", "--live"])
        monitor = _make_monitor(args)
        assert monitor.status.path == DEFAULT_STATUS_PATH
        args = build_parser().parse_args(
            ["sweep", "iot", "--status-file", "x.json"])
        assert _make_monitor(args).status.path == "x.json"
        args = build_parser().parse_args(["sweep", "iot"])
        assert _make_monitor(args).status is None


class TestBenchCompareCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench-compare", "a", "b"])
        assert args.baseline == "a"
        assert args.current == "b"
        assert args.counter_tolerance == 0.0
        assert args.perf_tolerance == 0.30
        assert args.quantile_tolerance == 0.25

    def test_requires_both_directories(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench-compare", "onlyone"])

    def test_self_compare_passes(self, capsys, tmp_path):
        body = {"name": "smoke",
                "counters": {"server": {"SynsRecv": 10}}}
        for sub in ("base", "cur"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "BENCH_smoke.json").write_text(
                json.dumps(body))
        assert main(["bench-compare", str(tmp_path / "base"),
                     str(tmp_path / "cur")]) == 0
        assert "bench-compare: PASS" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, capsys, tmp_path):
        base = {"name": "smoke", "counters": {"server": {"SynsRecv": 10}}}
        bad = {"name": "smoke", "counters": {"server": {"SynsRecv": 11}}}
        (tmp_path / "base").mkdir()
        (tmp_path / "cur").mkdir()
        (tmp_path / "base" / "BENCH_smoke.json").write_text(
            json.dumps(base))
        (tmp_path / "cur" / "BENCH_smoke.json").write_text(
            json.dumps(bad))
        assert main(["bench-compare", str(tmp_path / "base"),
                     str(tmp_path / "cur")]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_micro_prefix_round_trip(self, capsys, tmp_path):
        assert main(["perf", "micro", "timer_churn", "--scale", "0.002",
                     "--repeats", "1", "-o",
                     str(tmp_path / "base")]) == 0
        import shutil

        shutil.copytree(tmp_path / "base", tmp_path / "cur")
        # A scenario manifest on one side only is outside the prefix.
        (tmp_path / "base" / "BENCH_smoke.json").write_text(
            json.dumps({"name": "smoke", "counters": {}}))
        assert main(["bench-compare", "--prefix", "micro_",
                     str(tmp_path / "base"), str(tmp_path / "cur")]) == 0
        capsys.readouterr()
        # Perturb the work counters: the determinism gate must fire.
        path = tmp_path / "cur" / "BENCH_micro_timer_churn.json"
        body = json.loads(path.read_text())
        body["counters"]["micro"]["scheduled"] += 1
        path.write_text(json.dumps(body))
        assert main(["bench-compare", "--prefix", "micro_",
                     str(tmp_path / "base"), str(tmp_path / "cur")]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_empty_directories_fail(self, capsys, tmp_path):
        (tmp_path / "base").mkdir()
        (tmp_path / "cur").mkdir()
        assert main(["bench-compare", str(tmp_path / "base"),
                     str(tmp_path / "cur")]) == 1
        assert "nothing compared" in capsys.readouterr().out

    def test_prefix_matching_nothing_fails(self, capsys, tmp_path):
        body = {"name": "smoke",
                "counters": {"server": {"SynsRecv": 10}}}
        for sub in ("base", "cur"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "BENCH_smoke.json").write_text(
                json.dumps(body))
        assert main(["bench-compare", "--prefix", "micro_",
                     str(tmp_path / "base"), str(tmp_path / "cur")]) == 1
        assert "nothing compared" in capsys.readouterr().out


class TestPerfCommand:
    def test_micro_parser_defaults(self):
        args = build_parser().parse_args(["perf", "micro"])
        assert args.repeats == 3
        assert args.scale == 1.0
        assert args.output is None
        assert args.benchmarks == []

    def test_perf_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf"])

    def test_micro_list(self, capsys):
        assert main(["perf", "micro", "--list"]) == 0
        out = capsys.readouterr().out
        assert "timer_churn" in out
        assert "puzzle_codec" in out

    def test_micro_unknown_benchmark(self, capsys):
        assert main(["perf", "micro", "warp_drive"]) == 2
        assert "unknown micro-benchmark" in capsys.readouterr().err

    def test_micro_writes_manifests(self, capsys, tmp_path):
        assert main(["perf", "micro", "timer_churn", "--scale", "0.002",
                     "--repeats", "2", "-o", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "timer_churn" in out and "ops/s" in out
        body = json.loads(
            (tmp_path / "BENCH_micro_timer_churn.json").read_text())
        assert body["name"] == "micro_timer_churn"
        assert body["perf"]["events_per_second"] > 0
        assert body["counters"]["micro"]["scheduled"] > 0

    def test_profile_small_run(self, capsys, tmp_path):
        flame = tmp_path / "flame.txt"
        manifest_dir = tmp_path / "manifests"
        assert main(["perf", "profile", "--time-scale", "0.01",
                     "--clients", "2", "--attackers", "1",
                     "--flame", str(flame),
                     "-o", str(manifest_dir)]) == 0
        out = capsys.readouterr().out
        assert "self time by layer:" in out
        assert "heap churn:" in out
        assert "top functions by self time" in out
        text = flame.read_text()
        assert text.strip()
        # Collapsed-stack lines: layer;module;qualname <int>
        first = text.splitlines()[0]
        stack, _, value = first.rpartition(" ")
        assert len(stack.split(";")) == 3
        assert int(value) > 0
        body = json.loads(
            (manifest_dir / "BENCH_profile_syn_puzzles.json").read_text())
        assert body["profile"]["layers"]["net"]["self_seconds"] > 0
        assert "heap_churn" in body["profile"]

    def test_profile_chrome_export(self, tmp_path):
        chrome = tmp_path / "trace.json"
        assert main(["perf", "profile", "--time-scale", "0.01",
                     "--clients", "1", "--attackers", "1",
                     "--chrome", str(chrome)]) == 0
        body = json.loads(chrome.read_text())
        assert body["traceEvents"]


class TestCostCommand:
    def test_cost_table(self, capsys):
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "131072 hashes" in out
        assert "D1" in out and "cpu1" in out

    def test_custom_difficulty(self, capsys):
        assert main(["cost", "-k", "1", "-m", "12"]) == 0
        out = capsys.readouterr().out
        assert "2048 hashes" in out
