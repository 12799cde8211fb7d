"""``repro.obs`` — the kernel-style observability layer.

Four pillars, all zero-cost when left at their defaults:

* **Counters** (:mod:`repro.obs.counters`) — per-host SNMP/MIB-style
  monotonic counters (``SynsRecv``, ``SynCookiesSent``, ``PuzzlesVerified``,
  …) incremented by the TCP stack, the listener's defense paths, and the
  puzzle verification code. Always on; an increment is one dict update.
* **Tracepoints** (:mod:`repro.obs.trace`) — a bounded ring buffer of
  timestamped handshake events that reconstructs per-connection timelines.
  Off by default; every emit site gates on ``tracer.enabled``. Elevated
  into structured per-connection spans by :mod:`repro.obs.spans`.
* **Histograms** (:mod:`repro.obs.hist`) — log-bucketed duration
  histograms (handshake latency, puzzle solve time, accept-queue wait)
  with fixed boundaries so they merge across sweep workers. Always on;
  a record is one dict lookup plus a ``log10``.
* **Profiling** (:mod:`repro.obs.profile`) — :class:`Profiler` runs
  cProfile around a block and books self time and calls to the
  benchmark ledger's layers. Nothing in the simulator knows about it, so
  an unprofiled run pays nothing.

One :class:`Observability` hub exists per engine (``hub_for(engine)``
creates it on demand and caches it on the engine), so every host built on
the same engine shares one registry and one tracer without any extra
plumbing through constructors.
"""

from __future__ import annotations

from repro.obs.counters import (
    CATALOGUE,
    DROP_CAUSES,
    ESTABLISHED_COUNTERS,
    CounterRegistry,
    CounterScope,
    drop_attribution,
    established_total,
)
from repro.obs.hist import Histogram, HistogramRegistry
from repro.obs.profile import LAYERS, Profiler, heap_churn
from repro.obs.sketch import CountMinSketch, SourceAttribution, SpaceSaving
from repro.obs.spans import HandshakeSpan, SpanPhase, build_spans
from repro.obs.timeseries import (
    SeriesRegistry,
    SimSampler,
    TelemetrySpec,
    TimeSeries,
    chrome_counter_events,
    series_payload,
)
from repro.obs.trace import DEFAULT_CAPACITY, HandshakeTracer, TraceEvent

__all__ = [
    "CATALOGUE",
    "DROP_CAUSES",
    "ESTABLISHED_COUNTERS",
    "CountMinSketch",
    "CounterRegistry",
    "CounterScope",
    "DEFAULT_CAPACITY",
    "HandshakeSpan",
    "HandshakeTracer",
    "Histogram",
    "HistogramRegistry",
    "LAYERS",
    "Observability",
    "Profiler",
    "SeriesRegistry",
    "SimSampler",
    "SourceAttribution",
    "SpaceSaving",
    "SpanPhase",
    "TelemetrySpec",
    "TimeSeries",
    "TraceEvent",
    "build_spans",
    "chrome_counter_events",
    "drop_attribution",
    "established_total",
    "heap_churn",
    "hub_for",
    "series_payload",
]


class Observability:
    """Counters + tracer + histograms for one simulation."""

    def __init__(self, trace_capacity: int = DEFAULT_CAPACITY,
                 tracing: bool = False) -> None:
        self.counters = CounterRegistry()
        self.tracer = HandshakeTracer(capacity=trace_capacity,
                                      enabled=tracing)
        self.hist = HistogramRegistry()


def hub_for(engine) -> Observability:
    """The engine's observability hub, created on first access.

    Stored as ``engine.obs`` — the engine itself stays ignorant of what
    the hub contains (no import from :mod:`repro.sim`).
    """
    hub = getattr(engine, "obs", None)
    if hub is None:
        hub = Observability()
        engine.obs = hub
    return hub

