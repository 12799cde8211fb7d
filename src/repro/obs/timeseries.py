"""Streaming telemetry: deterministic sim-time series from a live run.

End-of-run counters answer "how many"; the paper's §4 equilibrium story
is about *rates over time* — SYN arrival vs. verification vs. drop as
the attack engages and the controller responds. This module adds the
streaming layer:

* :class:`TelemetrySpec` — the picklable, hashable configuration knob
  (``ScenarioConfig.telemetry``). ``None`` (the default) records no
  telemetry series and adds no per-event cost anywhere (the
  zero-overhead invariant of ``tests/obs/test_profile.py`` covers this).
* :class:`TimeSeries` — one named series in a bounded ring of
  ``(time, value)`` samples: appends past the capacity evict the oldest
  sample and count it as dropped, so memory is fixed no matter how long
  the run is. Three kinds: ``rate`` (counter delta / cadence),
  ``gauge`` (instantaneous occupancy), ``quantile`` (histogram
  quantile). Rates and gauges merge sample-for-sample across sweep
  workers; quantiles do not (a quantile of quantiles is meaningless)
  and are kept per-cell only.
* :class:`QueueDepths` and :class:`CPUUtilization` — the Figure 10 and
  Figure 9 series and their queries, as plain data.
* :class:`SimSampler` — the one periodic reader of a run, firing on
  :class:`~repro.sim.process.AlignedPeriodicProcess` ticks (absolute
  times ``k * interval``, so every cell's time column is bit-identical):
  queue depths and CPU busy % every ``TICK``, and with a
  :class:`TelemetrySpec` counter deltas, listener/accept-queue
  occupancy, syncache fill and selected histogram quantiles every
  ``cadence``.
* :func:`chrome_counter_events` — Chrome trace-event counter records
  (``"ph": "C"``) so Perfetto draws the rate curves as counter tracks on
  the same timeline as the :mod:`repro.obs.spans` handshake spans.

Everything here is sim-time driven and reads engine/hub state that is
itself deterministic, so two runs of the same seeded config produce
byte-identical series — they ride the same serial ≡ parallel contract
as the counters and histograms.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.obs.counters import DROP_CAUSES
from repro.obs.hist import QUANTILE_LABELS

#: Series kinds that sum meaningfully across sweep cells.
MERGEABLE_KINDS = frozenset({"rate", "gauge"})

#: The counters sampled by default: the paper's arrival/verification/
#: drop/establishment story, one rate curve each.
DEFAULT_COUNTERS: Tuple[str, ...] = (
    "SynsRecv",
    "PuzzlesIssued",
    "PuzzlesVerified",
    "PuzzlesRejected",
    "SynCookiesSent",
    "ListenOverflows",
    "EstabNormal",
    "EstabCookie",
    "EstabPuzzle",
    "EstabSynCache",
    "RequestsServed",
)

#: Histogram families whose quantiles are sampled by default.
DEFAULT_HISTOGRAMS: Tuple[str, ...] = ("accept_wait",)

_QUANTILE_BY_LABEL = dict(QUANTILE_LABELS)

#: Sim-seconds between :class:`SimSampler` ticks: the Figure 10 grid.
#: CPU busy % (Figure 9) is read every second tick.
TICK = 0.5


@dataclass(frozen=True)
class TelemetrySpec:
    """Streaming-telemetry configuration (``ScenarioConfig.telemetry``).

    Frozen and built from plain tuples so it pickles across sweep
    workers and canonicalizes into result-cache keys unchanged.
    """

    #: Sim-seconds between samples. Every sample lands at an exact
    #: multiple ``k * cadence``, so same-cadence cells share time columns.
    cadence: float = 0.5
    #: Ring capacity per series; the oldest samples are evicted beyond it.
    capacity: int = 2048
    #: Counter names turned into ``rate.<Name>`` series (delta/cadence).
    counters: Tuple[str, ...] = DEFAULT_COUNTERS
    #: Histogram names whose quantiles become ``quantile.<name>.<p>``.
    histograms: Tuple[str, ...] = DEFAULT_HISTOGRAMS
    #: Quantile labels to sample (subset of the exporters' standard set).
    quantiles: Tuple[str, ...] = ("p95",)
    #: Attach bounded-memory per-source attribution sketches
    #: (:mod:`repro.obs.sketch`) to the listener.
    attribution: bool = False
    #: Space-Saving heavy-hitter slots per tracked dimension.
    top_k: int = 16
    #: Count-Min sketch width (rounded up to a power of two) and depth.
    cms_width: int = 512
    cms_depth: int = 4
    #: Source addresses are masked to this prefix before sketching
    #: (32 = exact /32 hosts; 24 aggregates per /24, etc.).
    prefix_bits: int = 32

    def __post_init__(self) -> None:
        if self.cadence <= 0:
            raise SimulationError(
                f"telemetry cadence must be positive, got {self.cadence!r}")
        if self.capacity < 1:
            raise SimulationError(
                f"telemetry capacity must be >= 1, got {self.capacity!r}")
        for name in ("counters", "histograms"):
            if getattr(self, name) is None:
                raise SimulationError(
                    f"telemetry {name} must be a tuple of names, not None "
                    f"(the default is DEFAULT_{name.upper()}; () samples "
                    f"none)")
        for label in self.quantiles:
            if label not in _QUANTILE_BY_LABEL:
                known = ", ".join(label for label, _ in QUANTILE_LABELS)
                raise SimulationError(
                    f"unknown quantile label {label!r} (known: {known})")
        if self.top_k < 1:
            raise SimulationError(
                f"telemetry top_k must be >= 1, got {self.top_k!r}")
        if self.cms_width < 1 or self.cms_depth < 1:
            raise SimulationError(
                "Count-Min sketch needs width >= 1 and depth >= 1")
        if not 0 <= self.prefix_bits <= 32:
            raise SimulationError(
                f"prefix_bits must be in [0, 32], got {self.prefix_bits!r}")


class TimeSeries:
    """One named, kinded, bounded time series.

    Plain data: picklable, no engine reference.
    """

    __slots__ = ("name", "kind", "cadence", "capacity", "dropped",
                 "_times", "_values")

    def __init__(self, name: str, kind: str, cadence: float,
                 capacity: int = 2048) -> None:
        if kind not in ("rate", "gauge", "quantile"):
            raise SimulationError(f"unknown series kind {kind!r}")
        if capacity < 1:
            raise SimulationError(
                f"ring capacity must be >= 1, got {capacity!r}")
        self.name = name
        self.kind = kind
        self.cadence = cadence
        self.capacity = int(capacity)
        self.dropped = 0
        self._times: deque = deque(maxlen=self.capacity)
        self._values: deque = deque(maxlen=self.capacity)

    # ------------------------------------------------------------------
    def record(self, t: float, value: float) -> None:
        if len(self._times) == self.capacity:
            self.dropped += 1
        self._times.append(t)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    def samples(self) -> List[Tuple[float, float]]:
        """Oldest-to-newest list of retained ``(time, value)`` pairs."""
        return list(zip(self._times, self._values))

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The retained ``(times, values)`` as numpy arrays."""
        return np.asarray(self._times), np.asarray(self._values)

    def _window(self, start: float, end: float) -> np.ndarray:
        """Values sampled in ``[start, end)``."""
        times, values = self.arrays()
        return values[(times >= start) & (times < end)]

    def mean_in(self, start: float, end: float) -> float:
        """Mean of the values sampled in ``[start, end)`` (NaN if none)."""
        values = self._window(start, end)
        return float(np.mean(values)) if len(values) else float("nan")

    def max_in(self, start: float, end: float) -> float:
        """Largest value sampled in ``[start, end)`` (NaN if none)."""
        values = self._window(start, end)
        return float(np.max(values)) if len(values) else float("nan")

    def _reload(self, samples: Iterable[Tuple[float, float]]) -> None:
        """Refill the ring from ``(time, value)`` pairs (newest past the
        capacity win, counting the overflow as dropped)."""
        self._times.clear()
        self._values.clear()
        for t, value in samples:
            self.record(t, value)

    # ------------------------------------------------------------------
    def copy(self) -> "TimeSeries":
        clone = TimeSeries(self.name, self.kind, self.cadence,
                           self.capacity)
        clone._reload(self.samples())
        clone.dropped = self.dropped
        return clone

    def merge(self, other: "TimeSeries") -> "TimeSeries":
        """Fold *other* into this series by summing aligned samples.

        Only meaningful for the mergeable kinds (rates add to an
        aggregate rate, gauges to an aggregate occupancy). Timestamps
        are exact cadence multiples computed identically in every cell,
        so alignment is bitwise float equality, not tolerance matching.
        """
        if (self.name, self.kind) != (other.name, other.kind):
            raise SimulationError(
                f"cannot merge series {other.name!r}/{other.kind!r} into "
                f"{self.name!r}/{self.kind!r}")
        if self.kind not in MERGEABLE_KINDS:
            raise SimulationError(
                f"series kind {self.kind!r} does not merge")
        acc: Dict[float, float] = dict(self.samples())
        for t, value in other.samples():
            acc[t] = acc.get(t, 0.0) + value
        self.dropped += other.dropped
        self._reload(sorted(acc.items()))
        return self

    # ------------------------------------------------------------------
    def as_payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "cadence": self.cadence,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "samples": [[t, value] for t, value in self.samples()],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "TimeSeries":
        series = cls(str(payload["name"]), str(payload["kind"]),
                     float(payload.get("cadence", 0.0)),
                     int(payload.get("capacity", 2048)))
        series._reload(
            (float(t), float(v)) for t, v in payload.get("samples", []))
        series.dropped = int(payload.get("dropped", 0))
        return series

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TimeSeries {self.name!r} kind={self.kind} "
                f"n={len(self)}>")


class SeriesRegistry:
    """Name → :class:`TimeSeries` map, mirroring ``HistogramRegistry``."""

    def __init__(self) -> None:
        self._series: Dict[str, TimeSeries] = {}

    def series(self, name: str, kind: str, cadence: float,
               capacity: int = 2048) -> TimeSeries:
        """The named series, created on first use."""
        series = self._series.get(name)
        if series is None:
            series = TimeSeries(name, kind, cadence, capacity)
            self._series[name] = series
        return series

    def get(self, name: str) -> Optional[TimeSeries]:
        return self._series.get(name)

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def names(self) -> List[str]:
        return sorted(self._series)

    def all(self) -> Iterator[TimeSeries]:
        for name in self.names():
            yield self._series[name]

    def as_dict(self) -> Dict[str, TimeSeries]:
        """Shallow copy of the name → series map (for summaries)."""
        return dict(self._series)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Name-sorted JSON-friendly payloads of every series."""
        return {name: self._series[name].as_payload()
                for name in self.names()}

    def merge(self, other) -> "SeriesRegistry":
        """Fold another registry (or name → TimeSeries dict) into this.

        Incoming series are copied, never aliased. Non-mergeable kinds
        (quantiles) are skipped: they stay per-cell, because averaging
        or summing quantiles across cells is statistically wrong.
        """
        source = other.as_dict() if isinstance(other, SeriesRegistry) \
            else dict(other)
        for name in sorted(source):
            series = source[name]
            if series.kind not in MERGEABLE_KINDS:
                continue
            mine = self._series.get(name)
            if mine is None:
                self._series[name] = series.copy()
            else:
                mine.merge(series)
        return self


@dataclass(eq=False)
class QueueDepths:
    """Sampled listen-queue and accept-queue depths (Figure 10)."""

    listen_depth: TimeSeries
    accept_depth: TimeSeries

    def listen_series(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.listen_depth.arrays()

    def accept_series(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.accept_depth.arrays()


@dataclass(eq=False)
class CPUUtilization:
    """Busy-fraction (%) samples per host name (Figure 9)."""

    series: Dict[str, TimeSeries]

    def utilization(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        return self.series[name].arrays()

    def mean_in(self, name: str, start: float, end: float) -> float:
        return self.series[name].mean_in(start, end)

    def max_in(self, name: str, start: float, end: float) -> float:
        return self.series[name].max_in(start, end)


class SimSampler:
    """The one periodic reader of a run: every series, on aligned ticks.

    The tick fires at each absolute multiple of :data:`TICK`, and
    :meth:`start` takes one more read at the start time. Each read
    records the listener's listen and accept depth into :attr:`queues`
    (Figure 10); every second tick records each CPU host's busy % over
    the past second into :attr:`cpu` (Figure 9). Those rings hold every
    sample up to *duration*. With a telemetry *spec*, :meth:`_sample`
    records counter rates, occupancy gauges and histogram quantiles into
    :attr:`registry` on an aligned process of its own, at each multiple
    of the spec's cadence.

    Reads — never mutates — hub counters, listener queues, CPU
    accounting, the syncache and histograms, so it cannot change
    protocol behaviour or any deterministic payload other than adding
    its own events to the engine's schedule accounting.
    """

    def __init__(self, engine, hub=None,
                 spec: Optional[TelemetrySpec] = None,
                 listener=None, cpu_hosts: Sequence = (),
                 duration: float = 0.0) -> None:
        # Deferred import: repro.obs must stay importable without
        # repro.sim (the hub promises engine-ignorance; see hub_for).
        from repro.sim.process import AlignedPeriodicProcess

        self.engine = engine
        self.hub = hub
        self.spec = spec
        self.listener = listener
        self.cpu_hosts = list(cpu_hosts)
        capacity = int(duration / TICK) + 1
        self.queues = QueueDepths(
            TimeSeries("listen_depth", "gauge", TICK, capacity),
            TimeSeries("accept_depth", "gauge", TICK, capacity))
        self.cpu = CPUUtilization({
            host.name: TimeSeries(f"cpu.{host.name}", "gauge", 2 * TICK,
                                  capacity)
            for host in self.cpu_hosts})
        self._last_busy = {host.name: 0.0 for host in self.cpu_hosts}
        self.registry = SeriesRegistry()
        self.samples_taken = 0
        self._process = AlignedPeriodicProcess(engine, self._tick, TICK)
        self._telemetry = None
        if spec is not None:
            self._last_totals = {name: 0 for name in spec.counters}
            self._last_drop_total = 0
            self._telemetry = AlignedPeriodicProcess(
                engine, self._sample, spec.cadence)

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._read_queues(self.engine.now)
        self._process.start()
        if self._telemetry is not None:
            self._telemetry.start()

    def stop(self) -> None:
        self._process.stop()
        if self._telemetry is not None:
            self._telemetry.stop()

    # ------------------------------------------------------------------
    def _read_queues(self, now: float) -> None:
        listener = self.listener
        if listener is not None:
            self.queues.listen_depth.record(now, len(listener.listen_queue))
            self.queues.accept_depth.record(now, len(listener.accept_queue))

    def _tick(self) -> None:
        now = self.engine.now
        self._read_queues(now)
        # Whole seconds by absolute time, whenever the sampler started.
        if round(now / TICK) % 2 == 0:
            last_busy = self._last_busy
            for host in self.cpu_hosts:
                busy = host.cpu.busy_seconds(now)
                utilization = (100.0 * (busy - last_busy[host.name])
                               / (2 * TICK))
                last_busy[host.name] = busy
                self.cpu.series[host.name].record(
                    now, min(100.0, utilization))

    def _series(self, name: str, kind: str) -> TimeSeries:
        return self.registry.series(name, kind, self.spec.cadence,
                                    self.spec.capacity)

    def _sample(self) -> None:
        spec = self.spec
        now = self.engine.now
        cadence = spec.cadence
        counters = self.hub.counters
        for name in spec.counters:
            total = counters.total(name)
            delta = total - self._last_totals[name]
            self._last_totals[name] = total
            self._series(f"rate.{name}", "rate").record(
                now, delta / cadence)
        # One aggregate drop-rate curve across every terminal cause —
        # the monitor's headline number.
        drop_total = sum(counters.total(cause) for cause in DROP_CAUSES)
        self._series("rate.Drops", "rate").record(
            now, (drop_total - self._last_drop_total) / cadence)
        self._last_drop_total = drop_total
        listener = self.listener
        if listener is not None:
            self._series("gauge.listen_depth", "gauge").record(
                now, float(len(listener.listen_queue)))
            self._series("gauge.accept_depth", "gauge").record(
                now, float(len(listener.accept_queue)))
            syncache = listener.config.syncache
            if syncache is not None:
                self._series("gauge.syncache_fill", "gauge").record(
                    now, float(len(syncache)))
                if syncache.memory_budget is not None:
                    # Budgeted caches chart occupancy in bytes against
                    # the budget; unbudgeted runs stay byte-identical.
                    self._series("gauge.syncache_bytes", "gauge").record(
                        now, float(syncache.occupancy_bytes))
            watchdog = getattr(listener, "watchdog", None)
            if watchdog is not None:
                self._series("gauge.overload_state", "gauge").record(
                    now, float(watchdog.state.value))
        if spec.histograms:
            hists = self.hub.hist
            for hist_name in spec.histograms:
                hist = hists.get(hist_name)
                if hist is None or hist.count == 0:
                    continue
                for label in spec.quantiles:
                    q = _QUANTILE_BY_LABEL[label]
                    self._series(
                        f"quantile.{hist_name}.{label}",
                        "quantile").record(now, hist.quantile(q))
        self.samples_taken += 1

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, TimeSeries]:
        return self.registry.as_dict()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return self.registry.snapshot()


# ----------------------------------------------------------------------
def series_payload(series: Dict[str, TimeSeries]
                   ) -> Dict[str, Dict[str, object]]:
    """Name-sorted JSON-friendly payloads for a series dict."""
    return {name: series[name].as_payload() for name in sorted(series)}


def chrome_counter_events(series: Dict[str, TimeSeries],
                          pid: int = 1) -> List[Dict[str, object]]:
    """Chrome trace-event counter records (``"ph": "C"``).

    One counter track per series (keyed by ``pid`` + event name), one
    event per sample with the value under ``args.value`` — the layout
    Perfetto renders as a stepped counter curve alongside span tracks.
    Timestamps convert sim-seconds to trace microseconds like
    :mod:`repro.obs.spans` does, so both land on one timeline.
    """
    events: List[Dict[str, object]] = []
    for name in sorted(series):
        one = series[name]
        for t, value in one.samples():
            events.append({
                "name": one.name,
                "ph": "C",
                "ts": t * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {"value": value},
            })
    events.sort(key=lambda event: (event["ts"], event["name"]))
    return events
