"""Exporter tests: JSON-lines, Prometheus text, and run manifests."""

import io
import json

from repro.obs import (
    LAYERS,
    CounterRegistry,
    HandshakeTracer,
    Profiler,
    SeriesRegistry,
)
from repro.obs.export import (
    _escape_label,
    catalogue_text,
    counters_jsonl,
    hist_lines,
    prometheus_text,
    series_lines,
    trace_jsonl,
    write_jsonl,
)
from repro.obs.hist import Histogram, HistogramRegistry
from repro.obs.manifest import (
    environment_info,
    hub_payload,
    write_manifest,
)
from repro.sim.engine import Engine


def _registry() -> CounterRegistry:
    registry = CounterRegistry()
    registry.scope("server").incr("SynsRecv", 10)
    registry.scope("server").incr("ListenOverflows", 3)
    registry.scope("client0").incr("InSegs", 4)
    return registry


def _hists() -> HistogramRegistry:
    registry = HistogramRegistry()
    registry.record("handshake_latency.client", 0.010)
    registry.record("handshake_latency.client", 0.020)
    registry.record("accept_wait", 0.001)
    return registry


def _series() -> SeriesRegistry:
    registry = SeriesRegistry()
    rate = registry.series("rate.SynsRecv", "rate", 0.5)
    rate.record(0.5, 10.0)
    rate.record(1.0, 12.0)
    registry.series("gauge.listen_depth", "gauge", 0.5).record(0.5, 3.0)
    return registry


def _tracer() -> HandshakeTracer:
    tracer = HandshakeTracer(enabled=True)
    tracer.emit(0.5, "server", "syn-in", (1, 2, 80))
    tracer.emit(0.6, "server", "accept", (1, 2, 80), path="normal")
    return tracer


class TestJsonl:
    def test_counters_jsonl_lines_parse(self):
        lines = counters_jsonl(_registry()).splitlines()
        parsed = [json.loads(line) for line in lines]
        assert all(obj["type"] == "counter" for obj in parsed)
        assert {"host": "server", "counter": "SynsRecv", "value": 10,
                "type": "counter"} in parsed
        # Host-sorted, then counter-sorted within a host.
        assert [obj["host"] for obj in parsed] == [
            "client0", "server", "server"]

    def test_trace_jsonl_round_trips_flow(self):
        parsed = [json.loads(line)
                  for line in trace_jsonl(_tracer()).splitlines()]
        assert parsed[0]["event"] == "syn-in"
        assert parsed[0]["flow"] == [1, 2, 80]
        assert parsed[1]["detail"] == {"path": "normal"}

    def test_write_jsonl_combines_sources(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with Profiler() as profiler:
            engine.run()
        stream = io.StringIO()
        count = write_jsonl(stream, registry=_registry(),
                            tracer=_tracer(), engine=engine,
                            profiler=profiler)
        lines = stream.getvalue().splitlines()
        assert len(lines) == count
        types = [json.loads(line)["type"] for line in lines]
        assert types.count("counter") == 3
        assert types.count("trace") == 2
        assert types.count("engine") == 1
        # One profile line per layer, in the profiler's layer order.
        profile = [json.loads(line) for line in lines
                   if json.loads(line)["type"] == "profile"]
        assert [obj["layer"] for obj in profile] == list(LAYERS) + ["other"]
        assert all(set(obj) == {"type", "layer", "calls", "self_seconds"}
                   for obj in profile)

    def test_export_is_deterministic(self):
        assert counters_jsonl(_registry()) == counters_jsonl(_registry())
        assert trace_jsonl(_tracer()) == trace_jsonl(_tracer())
        assert list(hist_lines(_hists())) == list(hist_lines(_hists()))

    def test_hist_lines_carry_buckets_and_quantiles(self):
        parsed = [json.loads(line) for line in hist_lines(_hists())]
        assert [obj["name"] for obj in parsed] == [
            "accept_wait", "handshake_latency.client"]
        latency = parsed[1]
        assert latency["type"] == "hist"
        assert latency["count"] == 2
        assert latency["quantiles"]["p95"] > 0
        assert sum(latency["buckets"].values()) == 2
        assert latency["layout"]["buckets_per_decade"] == 20

    def test_hist_lines_accept_plain_dict(self):
        hist = Histogram("solve")
        hist.record(0.5)
        (line,) = hist_lines({"solve": hist})
        assert json.loads(line)["name"] == "solve"

    def test_empty_histogram_line_is_strict_json(self):
        (line,) = hist_lines({"empty": Histogram("empty")})
        obj = json.loads(line)
        assert obj["count"] == 0
        assert obj["min"] is None and obj["max"] is None
        assert all(v is None for v in obj["quantiles"].values())
        # No NaN/Infinity tokens may leak into the JSONL stream.
        json.loads(line, parse_constant=lambda _:
                   (_ for _ in ()).throw(AssertionError("non-finite")))

    def test_write_jsonl_includes_hists_and_spans(self):
        from repro.obs.spans import build_spans

        stream = io.StringIO()
        count = write_jsonl(stream, hists=_hists(),
                            spans=build_spans(_tracer()))
        lines = stream.getvalue().splitlines()
        assert len(lines) == count
        types = [json.loads(line)["type"] for line in lines]
        assert types.count("hist") == 2
        assert types.count("span") == 1

    def test_series_lines_are_name_sorted_payloads(self):
        parsed = [json.loads(line) for line in series_lines(_series())]
        assert [obj["name"] for obj in parsed] == [
            "gauge.listen_depth", "rate.SynsRecv"]
        rate = parsed[1]
        assert rate["type"] == "series"
        assert rate["kind"] == "rate"
        assert rate["samples"] == [[0.5, 10.0], [1.0, 12.0]]

    def test_series_lines_accept_plain_dict(self):
        table = _series().as_dict()
        assert [json.loads(line)["name"]
                for line in series_lines(table)] == sorted(table)

    def test_write_jsonl_includes_series(self):
        stream = io.StringIO()
        count = write_jsonl(stream, series=_series())
        lines = stream.getvalue().splitlines()
        assert len(lines) == count == 2
        assert all(json.loads(line)["type"] == "series"
                   for line in lines)


class TestPrometheus:
    def test_counter_families_with_labels(self):
        text = prometheus_text(registry=_registry())
        assert "# TYPE repro_mib_total counter" in text
        assert ('repro_mib_total{host="server",counter="SynsRecv"} 10'
                in text)
        assert ('repro_mib_total{host="client0",counter="InSegs"} 4'
                in text)

    def test_engine_metrics(self):
        engine = Engine()
        engine.schedule(2.0, lambda: None)
        engine.run()
        text = prometheus_text(engine=engine)
        assert "repro_engine_events_processed_total 1" in text
        assert "repro_engine_sim_seconds 2.0" in text

    def test_empty_inputs_render_empty(self):
        assert prometheus_text() == ""

    def test_summary_family_for_histograms(self):
        text = prometheus_text(hists=_hists())
        assert "# TYPE repro_duration_seconds summary" in text
        assert ('repro_duration_seconds{name="handshake_latency.client",'
                'quantile="0.95"}' in text)
        assert ('repro_duration_seconds_count'
                '{name="handshake_latency.client"} 2' in text)
        assert ('repro_duration_seconds_sum{name="accept_wait"} 0.001'
                in text)

    def test_empty_histogram_has_sum_count_but_no_quantiles(self):
        text = prometheus_text(hists={"empty": Histogram("empty")})
        assert 'repro_duration_seconds_count{name="empty"} 0' in text
        assert 'name="empty",quantile=' not in text

    def test_series_gauge_family(self):
        text = prometheus_text(series=_series())
        assert "# TYPE repro_series_value gauge" in text
        # The gauge carries each series' latest sample.
        assert ('repro_series_value{name="rate.SynsRecv",kind="rate"} '
                '12.0' in text)
        assert ('repro_series_value{name="gauge.listen_depth",'
                'kind="gauge"} 3.0' in text)

    def test_empty_series_registry_renders_nothing(self):
        assert prometheus_text(series=SeriesRegistry()) == ""

    def test_catalogue_text_lists_every_counter(self):
        from repro.obs import CATALOGUE

        text = catalogue_text()
        for name in CATALOGUE:
            assert name in text


class TestEscapeLabel:
    """Prometheus label escaping, across every exporter family that
    interpolates a label value."""

    def test_backslashes_escaped_before_quotes(self):
        assert _escape_label('a\\b') == 'a\\\\b'
        assert _escape_label('say "hi"') == 'say \\"hi\\"'
        # A backslash-then-quote input must not double-escape.
        assert _escape_label('\\"') == '\\\\\\"'

    def test_newlines_become_literal_escapes(self):
        assert _escape_label("line1\nline2") == "line1\\nline2"

    def test_non_ascii_passes_through(self):
        assert _escape_label("sïgnal-λ") == "sïgnal-λ"

    def test_counter_family_escapes_host_and_counter(self):
        registry = CounterRegistry()
        registry.scope('host"a\n').incr("SynsRecv", 1)
        text = prometheus_text(registry=registry)
        assert 'host="host\\"a\\n"' in text
        assert "\n" not in text.split('host\\"a\\n')[1].split("}")[0]

    def test_summary_family_escapes_histogram_names(self):
        from repro.obs.hist import Histogram

        hist = Histogram('lat"ency\\x')
        hist.record(0.01)
        text = prometheus_text(hists={hist.name: hist})
        # Quantile, _sum and _count lines all carry the escaped name.
        assert text.count('name="lat\\"ency\\\\x"') >= 3

    def test_series_family_escapes_name(self):
        registry = SeriesRegistry()
        registry.series('rate."odd"\nname', "rate", 1.0).record(1.0, 5.0)
        text = prometheus_text(series=registry)
        assert 'name="rate.\\"odd\\"\\nname"' in text
        assert text.count("\n") == len(text.splitlines())


class TestManifest:
    def test_environment_info_keys(self):
        info = environment_info()
        assert set(info) == {"python", "implementation", "platform"}

    def test_hub_payload_attribution(self):
        from repro.obs import Observability

        hub = Observability()
        scope = hub.counters.scope("server")
        scope.incr("EstabNormal", 5)
        scope.incr("ListenOverflows", 2)
        payload = hub_payload(hub)
        attribution = payload["handshake_attribution"]["server"]
        assert attribution == {"established": 5,
                               "drops": {"ListenOverflows": 2},
                               "drops_total": 2}

    def test_write_manifest_stamps_environment(self, tmp_path):
        path = write_manifest(tmp_path / "sub" / "BENCH_x.json",
                              {"name": "x", "counters": {}})
        body = json.loads(path.read_text())
        assert body["name"] == "x"
        assert body["environment"]["python"]
        # Deterministic formatting: sorted keys, trailing newline.
        assert path.read_text().endswith("}\n")
