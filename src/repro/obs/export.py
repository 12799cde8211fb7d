"""Exporters: JSON-lines and Prometheus-style text exposition.

Two consumers, two formats:

* **JSON-lines** — one self-describing object per line (``type`` is
  ``counter`` / ``trace`` / ``span`` / ``hist`` / ``engine`` /
  ``profile``, one profile line per layer), for post-run analysis
  pipelines. All output is deterministically ordered and
  ``sort_keys``-serialised, so two identical runs produce byte-identical
  exports (the determinism tests rely on this).
* **Prometheus text exposition** — ``repro_mib_total{host=...,counter=...}``
  counter families plus ``repro_duration_seconds{name=...}`` summary
  families (histogram quantiles), with ``# HELP``/``# TYPE`` headers,
  for scraping a long-running simulation service.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, Optional, TextIO, Union

from repro.obs.counters import CATALOGUE, CounterRegistry
from repro.obs.hist import (
    QUANTILE_LABELS,
    Histogram,
    HistogramRegistry,
)
from repro.obs.trace import HandshakeTracer


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# JSON-lines
# ----------------------------------------------------------------------
def counter_lines(registry: CounterRegistry) -> Iterator[str]:
    for scope_name, counters in registry.snapshot().items():
        for counter, value in counters.items():
            yield _dumps({"type": "counter", "host": scope_name,
                          "counter": counter, "value": value})


def trace_lines(tracer: HandshakeTracer) -> Iterator[str]:
    for event in tracer.events():
        yield _dumps({"type": "trace", "t": event.t, "host": event.host,
                      "event": event.event, "flow": list(event.flow),
                      "detail": event.detail})


def engine_lines(engine) -> Iterator[str]:
    """One line of engine statistics (``engine.stats()``)."""
    stats = dict(engine.stats())
    stats["type"] = "engine"
    yield _dumps(stats)


def profile_lines(profiler) -> Iterator[str]:
    """One ``type: "profile"`` line per layer of a
    :class:`~repro.obs.profile.Profiler`, in layer order."""
    for layer, (calls, self_s) in profiler.layers.items():
        yield _dumps({"type": "profile", "layer": layer, "calls": calls,
                      "self_seconds": self_s})


def _hist_map(hists: Union[HistogramRegistry, Dict[str, Histogram]]
              ) -> Dict[str, Histogram]:
    if isinstance(hists, HistogramRegistry):
        return hists.as_dict()
    return dict(hists)


def hist_lines(hists: Union[HistogramRegistry, Dict[str, Histogram]]
               ) -> Iterator[str]:
    """One ``type: "hist"`` line per histogram, name-sorted."""
    table = _hist_map(hists)
    for name in sorted(table):
        yield _dumps({"type": "hist", **table[name].as_payload()})


def _series_map(series) -> Dict[str, object]:
    from repro.obs.timeseries import SeriesRegistry

    if isinstance(series, SeriesRegistry):
        return series.as_dict()
    return dict(series)


def series_lines(series) -> Iterator[str]:
    """One ``type: "series"`` line per telemetry series, name-sorted.

    Accepts a :class:`~repro.obs.timeseries.SeriesRegistry` or a plain
    name → :class:`~repro.obs.timeseries.TimeSeries` dict.
    """
    table = _series_map(series)
    for name in sorted(table):
        yield _dumps({"type": "series", **table[name].as_payload()})


def counters_jsonl(registry: CounterRegistry) -> str:
    return "".join(line + "\n" for line in counter_lines(registry))


def trace_jsonl(tracer: HandshakeTracer) -> str:
    return "".join(line + "\n" for line in trace_lines(tracer))


def write_jsonl(stream: TextIO, registry: Optional[CounterRegistry] = None,
                tracer: Optional[HandshakeTracer] = None,
                engine=None, profiler=None,
                hists=None, spans=None, series=None) -> int:
    """Write every provided source to *stream*; returns lines written."""
    from repro.obs.spans import span_lines

    count = 0
    if registry is not None:
        for line in counter_lines(registry):
            stream.write(line + "\n")
            count += 1
    if tracer is not None:
        for line in trace_lines(tracer):
            stream.write(line + "\n")
            count += 1
    if spans is not None:
        for line in span_lines(spans):
            stream.write(line + "\n")
            count += 1
    if hists is not None:
        for line in hist_lines(hists):
            stream.write(line + "\n")
            count += 1
    if series is not None:
        for line in series_lines(series):
            stream.write(line + "\n")
            count += 1
    if engine is not None:
        for line in engine_lines(engine):
            stream.write(line + "\n")
            count += 1
    if profiler is not None:
        for line in profile_lines(profiler):
            stream.write(line + "\n")
            count += 1
    return count


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace(
        "\n", "\\n")


def _summary_lines(lines, table: Dict[str, Histogram]) -> None:
    """Append one Prometheus summary family covering *table*."""
    lines.append("# HELP repro_duration_seconds log-bucketed duration "
                 "histogram quantiles (see repro.obs.hist.CATALOGUE)")
    lines.append("# TYPE repro_duration_seconds summary")
    for name in sorted(table):
        hist = table[name]
        label = _escape_label(name)
        if hist.count:
            for qlabel, q in QUANTILE_LABELS:
                lines.append(
                    f'repro_duration_seconds{{name="{label}",'
                    f'quantile="{q}"}} {hist.quantile(q)}')
        lines.append(f'repro_duration_seconds_sum{{name="{label}"}} '
                     f'{hist.total}')
        lines.append(f'repro_duration_seconds_count{{name="{label}"}} '
                     f'{hist.count}')


def _series_gauge_lines(lines, table) -> None:
    """Append one gauge family with each series' latest sample."""
    lines.append("# HELP repro_series_value latest streaming-telemetry "
                 "sample per series (see repro.obs.timeseries)")
    lines.append("# TYPE repro_series_value gauge")
    for name in sorted(table):
        series = table[name]
        samples = series.samples()
        if not samples:
            continue
        t, value = samples[-1]
        label = _escape_label(name)
        lines.append(f'repro_series_value{{name="{label}",'
                     f'kind="{_escape_label(series.kind)}"}} {value}')


def prometheus_text(registry: Optional[CounterRegistry] = None,
                    engine=None, hists=None, series=None) -> str:
    """Render the registry (and optional engine/histograms/series) as
    exposition text. Counter HELP strings come from the catalogue."""
    lines = []
    if registry is not None:
        lines.append("# HELP repro_mib_total SNMP-style protocol counter "
                     "(see repro.obs.counters.CATALOGUE)")
        lines.append("# TYPE repro_mib_total counter")
        for scope_name, counters in registry.snapshot().items():
            host = _escape_label(scope_name)
            for counter, value in counters.items():
                name = _escape_label(counter)
                lines.append(f'repro_mib_total{{host="{host}",'
                             f'counter="{name}"}} {value}')
    if engine is not None:
        stats = engine.stats()
        gauges = {
            "repro_engine_events_processed_total":
                ("counter", "callbacks executed", "events_processed"),
            "repro_engine_events_cancelled_total":
                ("counter", "events cancelled before firing",
                 "events_cancelled"),
            "repro_engine_heap_compactions_total":
                ("counter", "lazy-deletion heap compactions",
                 "compactions"),
            "repro_engine_heap_high_water":
                ("gauge", "largest heap size observed", "heap_high_water"),
            "repro_engine_pending_events":
                ("gauge", "heap entries still pending", "pending"),
            "repro_engine_sim_seconds":
                ("gauge", "simulation clock", "sim_seconds"),
            "repro_engine_wall_seconds":
                ("gauge", "wall time spent inside run()", "wall_seconds"),
            "repro_engine_sim_wall_ratio":
                ("gauge", "simulated seconds per wall second",
                 "sim_wall_ratio"),
        }
        for metric, (mtype, help_text, key) in gauges.items():
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} {mtype}")
            lines.append(f"{metric} {stats[key]}")
    if hists is not None:
        hist_table = _hist_map(hists)
        if hist_table:
            _summary_lines(lines, hist_table)
    if series is not None:
        table = _series_map(series)
        if table:
            _series_gauge_lines(lines, table)
    return "\n".join(lines) + "\n" if lines else ""


def catalogue_text() -> str:
    """The counter catalogue as documentation text (used by the docs)."""
    width = max(len(name) for name in CATALOGUE)
    return "\n".join(f"{name:<{width}s}  {desc}"
                     for name, desc in sorted(CATALOGUE.items()))
