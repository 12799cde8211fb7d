"""Picklable scenario summaries — what sweep workers send back.

A :class:`~repro.experiments.scenario.ScenarioResult` owns the live
simulation (engine, hosts, callbacks, sampler) and therefore cannot
cross a process boundary or be cached on disk. :func:`summarize` copies
its measurements into a :class:`ScenarioSummary` as plain data:
throughput taps, the CPU and queue-depth series, the connection log,
listener/SNMP counters and engine statistics. It computes nothing. The
run's sampler keeps its CPU and queue-depth series in the plain-data
:class:`~repro.obs.timeseries.CPUUtilization` and
:class:`~repro.obs.timeseries.QueueDepths`, which the summary holds as
they are; the tracker extends the plain-data connection log the summary
holds; and both objects inherit the run-level queries from
:class:`~repro.experiments.scenario.RunMeasures`, so experiments,
benchmarks and the CLI read either one through the same code.

``ScenarioSummary.as_payload()`` is the deterministic face: its engine
block keeps only the statistics every engine core computes identically
(no wall-clock fields, which differ between otherwise identical runs, and
no scheduler-layout fields, which differ between cores), so the
key-sorted JSONL export of a parallel sweep is byte-identical to the
serial run's on either core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.experiments.scenario import RunMeasures, Scenario
from repro.hosts.attacker import AttackStats
from repro.metrics.connections import ConnectionLog
from repro.metrics.series import BinnedSeries
from repro.metrics.throughput import HostThroughput
from repro.obs.hist import Histogram
from repro.obs.timeseries import (CPUUtilization, QueueDepths, TimeSeries,
                                  series_payload)
from repro.sim.engine import SHARED_STATS_KEYS
from repro.tcp.listener import ListenerStats


def deterministic_engine_stats(stats: Dict[str, float]
                               ) -> Dict[str, float]:
    """``engine.stats()`` cut to :data:`SHARED_STATS_KEYS`.

    Those are the keys every engine core computes identically: wall-clock
    fields (which vary run to run) and scheduler-layout fields such as
    ``compactions`` and ``heap_high_water`` (which differ between a heap
    and a wheel) are dropped. Safe to embed in exported/compared sweep
    cells; still carries ``sim_seconds`` and ``events_processed`` for
    runner accounting. Manifests keep the full ``stats()``.
    """
    return {key: stats[key] for key in SHARED_STATS_KEYS}


@dataclass
class ScenarioSummary(RunMeasures):
    """Everything measured during one scenario run, as plain data."""

    config: object                      # ScenarioConfig (picklable)
    engine_stats: Dict[str, float]
    listener_stats: ListenerStats
    counters: Dict[str, Dict[str, int]]
    server_throughput: HostThroughput
    client_throughput: HostThroughput
    cpu: CPUUtilization
    queues: QueueDepths
    connections: ConnectionLog
    server_established: Dict[str, BinnedSeries] = field(
        default_factory=dict)
    attack_stats: Optional[AttackStats] = None
    botnet_size: int = 0
    #: Sim-time duration histograms from the hub registry (handshake
    #: latency, puzzle solve time, accept-queue wait) — fixed-boundary
    #: and picklable, so the runner can merge them across workers.
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    #: Streaming-telemetry series (``config.telemetry``): bounded
    #: ring-buffer rate/gauge/quantile curves sampled on an exact
    #: sim-time cadence. Plain data; rates and gauges merge across
    #: sweep workers.
    timeseries: Dict[str, TimeSeries] = field(default_factory=dict)
    #: Bounded-memory per-source attribution snapshot (heavy-hitter
    #: tables + Count-Min error bound), present when the telemetry spec
    #: asked for it.
    attribution: Optional[Dict[str, object]] = None
    #: Fault-injection event counts (``repro.faults``), present when the
    #: run carried a non-empty :class:`FaultSchedule`.
    fault_stats: Optional[Dict[str, int]] = None
    #: Ticks the runtime invariant checker completed (0 = not attached).
    invariant_checks: int = 0
    #: Overload-watchdog snapshot (state, transitions, time in state,
    #: peak occupancy, ``repro_overload_state`` series, admission
    #: counters), present only when ``config.overload`` attached one —
    #: detached manifests stay byte-identical, like the telemetry block.
    overload: Optional[Dict[str, object]] = None

    @property
    def tracker(self) -> ConnectionLog:
        """Alias matching ``ScenarioResult.tracker``."""
        return self.connections

    # ------------------------------------------------------------------
    def as_payload(self) -> Dict[str, object]:
        """Deterministic JSON-friendly digest of the run.

        Two runs of the same seeded config must produce identical
        payloads on any engine core (the serial-vs-parallel and
        cross-core byte-identity contracts), so the engine block is
        :func:`deterministic_engine_stats`.
        """
        from repro.runner.export import to_jsonable
        from repro.runner.hashing import stable_hash

        payload: Dict[str, object] = {
            "config_fingerprint": stable_hash(self.config),
            "seed": self.config.seed,
            "defense": self.config.defense.value,
            "engine_stats": deterministic_engine_stats(self.engine_stats),
            "listener_stats": {
                name: getattr(self.listener_stats, name)
                for name in sorted(vars(self.listener_stats))
            },
            "counters": to_jsonable(self.counters),
            "connections": {
                label: self.connections.counts(label)
                for label in self.connections.labels()
            },
            "client_completion_percent": self.client_completion_percent(),
            "attacker_established_rate": self.attacker_established_rate(),
            "client_throughput_during_attack": to_jsonable(
                self.client_throughput_during_attack()),
            "server_throughput_during_attack": to_jsonable(
                self.server_throughput_during_attack()),
            # Sim-time histograms are as deterministic as the counters:
            # same seed, same buckets, same quantiles.
            "histograms": {name: self.histograms[name].as_payload()
                           for name in sorted(self.histograms)},
        }
        # Both blocks appear only when telemetry ran, so manifests from
        # detached runs are byte-identical to pre-telemetry ones.
        if self.timeseries:
            payload["timeseries"] = series_payload(self.timeseries)
        if self.attribution is not None:
            payload["attribution"] = self.attribution
        if self.attack_stats is not None:
            payload["attack_stats"] = to_jsonable(self.attack_stats)
            payload["botnet_size"] = self.botnet_size
        if self.fault_stats is not None:
            payload["fault_stats"] = dict(sorted(self.fault_stats.items()))
        if self.invariant_checks:
            payload["invariant_checks"] = self.invariant_checks
        if self.overload is not None:
            payload["overload"] = to_jsonable(self.overload)
        return payload


# ----------------------------------------------------------------------
def summarize(result) -> ScenarioSummary:
    """Copy a live :class:`ScenarioResult`'s measurements into plain data."""
    tracker = result.tracker
    connections = ConnectionLog(tracker.bin_width, list(tracker.records))
    counters: Dict[str, Dict[str, int]] = {}
    histograms: Dict[str, Histogram] = {}
    if result.obs is not None:
        counters = result.obs.counters.snapshot()
        histograms = result.obs.hist.as_dict()
    botnet_size = result.botnet.size if result.botnet is not None else 0
    fault_stats = None
    injector = getattr(result, "fault_injector", None)
    if injector is not None:
        fault_stats = injector.snapshot()
    checker = getattr(result, "invariants", None)
    invariant_checks = checker.checks_run if checker is not None else 0
    source_attribution = getattr(result, "attribution", None)
    attribution = (source_attribution.snapshot()
                   if source_attribution is not None else None)
    watchdog = getattr(result, "watchdog", None)
    overload = watchdog.snapshot() if watchdog is not None else None
    return ScenarioSummary(
        config=result.config,
        engine_stats=result.engine.stats(),
        listener_stats=result.listener_stats,
        counters=counters,
        server_throughput=result.server_throughput,
        client_throughput=result.client_throughput,
        cpu=result.cpu,
        queues=result.queues,
        connections=connections,
        server_established=dict(result.server_established),
        attack_stats=result.attack_stats,
        botnet_size=botnet_size,
        histograms=histograms,
        timeseries=result.sampler.as_dict(),
        attribution=attribution,
        fault_stats=fault_stats,
        invariant_checks=invariant_checks,
        overload=overload)


def run_scenario_summary(config) -> ScenarioSummary:
    """The canonical sweep cell: run one scenario, return its summary.

    Module-level and driven entirely by the (picklable) config, per the
    :mod:`repro.runner` determinism contract.
    """
    return summarize(Scenario(config).run())
