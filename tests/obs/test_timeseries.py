"""Streaming telemetry tests: aligned sampling, bounded series, merge
semantics, and the determinism contract (same seed → byte-identical
series; detached → no telemetry series recorded)."""

import json
import pickle

import pytest

from repro.errors import SimulationError
from repro.obs import SeriesRegistry, SimSampler, TelemetrySpec, TimeSeries
from repro.obs import chrome_counter_events, hub_for, series_payload
from repro.sim.engine import Engine
from repro.sim.process import AlignedPeriodicProcess


class TestAlignedPeriodicProcess:
    def test_fires_at_exact_interval_multiples(self):
        engine = Engine()
        ticks = []
        process = AlignedPeriodicProcess(
            engine, lambda: ticks.append(engine.now), 0.5)
        process.start()
        engine.run(until=3.0)
        assert ticks == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]

    def test_mid_run_start_aligns_to_next_multiple(self):
        engine = Engine()
        ticks = []
        process = AlignedPeriodicProcess(
            engine, lambda: ticks.append(engine.now), 1.0)
        engine.schedule(2.3, process.start)
        engine.run(until=5.0)
        assert ticks == [3.0, 4.0, 5.0]

    def test_stop_cancels_future_fires(self):
        engine = Engine()
        ticks = []
        process = AlignedPeriodicProcess(
            engine, lambda: ticks.append(engine.now), 1.0)
        process.start()
        engine.schedule(2.5, process.stop)
        engine.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_rejects_non_positive_interval(self):
        with pytest.raises(SimulationError):
            AlignedPeriodicProcess(Engine(), lambda: None, 0.0)


class TestTimeSeries:
    def test_rejects_unknown_kind(self):
        with pytest.raises(SimulationError):
            TimeSeries("x", "sparkline", 0.5)

    def test_ring_bounds_memory_and_counts_drops(self):
        series = TimeSeries("x", "gauge", 1.0, capacity=4)
        for i in range(10):
            series.record(float(i), float(i * i))
        assert len(series) == 4
        assert series.dropped == 6
        assert [t for t, _ in series.samples()] == [6.0, 7.0, 8.0, 9.0]

    def test_merge_sums_aligned_samples(self):
        a = TimeSeries("rate.SynsRecv", "rate", 1.0)
        b = TimeSeries("rate.SynsRecv", "rate", 1.0)
        a.record(1.0, 10.0)
        a.record(2.0, 20.0)
        b.record(2.0, 5.0)
        b.record(3.0, 7.0)
        a.merge(b)
        assert a.samples() == [(1.0, 10.0), (2.0, 25.0), (3.0, 7.0)]

    def test_merge_rejects_mismatched_identity(self):
        a = TimeSeries("x", "rate", 1.0)
        with pytest.raises(SimulationError):
            a.merge(TimeSeries("y", "rate", 1.0))
        with pytest.raises(SimulationError):
            a.merge(TimeSeries("x", "gauge", 1.0))

    def test_quantile_kind_refuses_to_merge(self):
        a = TimeSeries("quantile.accept_wait.p95", "quantile", 1.0)
        b = TimeSeries("quantile.accept_wait.p95", "quantile", 1.0)
        with pytest.raises(SimulationError):
            a.merge(b)

    def test_payload_round_trip(self):
        series = TimeSeries("x", "rate", 0.5, capacity=8)
        series.record(0.5, 2.0)
        series.record(1.0, 4.0)
        clone = TimeSeries.from_payload(series.as_payload())
        assert clone.as_payload() == series.as_payload()

    def test_copy_is_independent(self):
        series = TimeSeries("x", "gauge", 1.0)
        series.record(1.0, 1.0)
        clone = series.copy()
        clone.record(2.0, 2.0)
        assert len(series) == 1 and len(clone) == 2


class TestSeriesRegistry:
    def test_series_is_get_or_create(self):
        registry = SeriesRegistry()
        a = registry.series("x", "rate", 1.0)
        assert registry.series("x", "rate", 1.0) is a
        assert len(registry) == 1 and "x" in registry

    def test_merge_copies_and_skips_quantiles(self):
        source = SeriesRegistry()
        source.series("rate.x", "rate", 1.0).record(1.0, 3.0)
        source.series("quantile.y.p95", "quantile", 1.0).record(1.0, 0.1)
        merged = SeriesRegistry().merge(source)
        assert merged.names() == ["rate.x"]
        # Copied, never aliased: mutating the merge target must not
        # touch the source cell's series.
        merged.get("rate.x").record(2.0, 1.0)
        assert len(source.get("rate.x")) == 1

    def test_snapshot_is_name_sorted_payloads(self):
        registry = SeriesRegistry()
        registry.series("b", "gauge", 1.0).record(1.0, 1.0)
        registry.series("a", "rate", 1.0).record(1.0, 2.0)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a", "b"]
        assert snapshot["a"]["samples"] == [[1.0, 2.0]]


class TestTelemetrySpec:
    def test_validation(self):
        with pytest.raises(SimulationError):
            TelemetrySpec(cadence=0.0)
        with pytest.raises(SimulationError):
            TelemetrySpec(capacity=0)
        with pytest.raises(SimulationError):
            TelemetrySpec(quantiles=("p97",))
        with pytest.raises(SimulationError):
            TelemetrySpec(top_k=0)
        with pytest.raises(SimulationError):
            TelemetrySpec(prefix_bits=33)
        # None is not a default set: each field names its default.
        with pytest.raises(SimulationError, match="DEFAULT_COUNTERS"):
            TelemetrySpec(counters=None)
        with pytest.raises(SimulationError, match="DEFAULT_HISTOGRAMS"):
            TelemetrySpec(histograms=None)

    def test_pickles_and_fingerprints(self):
        from repro.runner import stable_hash

        spec = TelemetrySpec(cadence=0.25, attribution=True)
        assert pickle.loads(pickle.dumps(spec)) == spec
        # Hashable into cache keys, and sensitive to every field.
        assert stable_hash(spec) == stable_hash(
            TelemetrySpec(cadence=0.25, attribution=True))
        assert stable_hash(spec) != stable_hash(TelemetrySpec())


class TestSimSampler:
    def _run(self, spec):
        engine = Engine()
        hub = hub_for(engine)
        scope = hub.counters.scope("server")
        # Ten SYNs per sim-second, so every 0.5 s cadence tick sees 5.
        for i in range(1, 41):
            engine.schedule(i * 0.1, scope.incr, "SynsRecv")
        sampler = SimSampler(engine, hub, spec)
        sampler.start()
        engine.run(until=4.0)
        sampler.stop()
        return sampler

    def test_rates_are_counter_deltas_over_cadence(self):
        spec = TelemetrySpec(cadence=0.5, counters=("SynsRecv",),
                             histograms=())
        sampler = self._run(spec)
        series = sampler.as_dict()["rate.SynsRecv"]
        assert [t for t, _ in series.samples()] == [
            0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
        assert all(value == 10.0 for _, value in series.samples())
        assert sampler.samples_taken == 8

    def test_same_run_twice_is_byte_identical(self):
        spec = TelemetrySpec(cadence=0.5, counters=("SynsRecv",),
                             histograms=())
        one = json.dumps(series_payload(self._run(spec).as_dict()),
                         sort_keys=True)
        two = json.dumps(series_payload(self._run(spec).as_dict()),
                         sort_keys=True)
        assert one == two


def _scenario(telemetry):
    from repro.experiments.scenario import Scenario, ScenarioConfig

    config = ScenarioConfig(time_scale=0.01, seed=1, n_clients=3,
                            n_attackers=2, attack_style="syn",
                            telemetry=telemetry)
    return Scenario(config).run()


class TestSamplingGrid:
    """The one sampler's grid: every series lands on exact multiples of
    its interval, and a run without telemetry schedules one sampler
    event per 0.5 s."""

    def test_queue_and_cpu_grid(self):
        result = _scenario(None)
        assert result.config.duration == 6.0
        half_seconds = [k * 0.5 for k in range(13)]
        assert result.queues.listen_series()[0].tolist() == half_seconds
        assert result.queues.accept_series()[0].tolist() == half_seconds
        assert sorted(result.cpu.series) == ["attacker0", "client0",
                                             "server"]
        for name in result.cpu.series:
            times, _ = result.cpu.utilization(name)
            assert times.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        rings = [result.queues.listen_depth, result.queues.accept_depth,
                 *result.cpu.series.values()]
        assert all(ring.dropped == 0 for ring in rings)

    def test_cpu_grid_is_whole_seconds_for_a_late_start(self):
        from tests.conftest import MiniNet

        net = MiniNet()
        net.run(until=0.7)
        sampler = SimSampler(net.engine, cpu_hosts=[net.server],
                             duration=4.0)
        sampler.start()
        net.run(until=4.0)
        times, _ = sampler.cpu.utilization("server")
        assert times.tolist() == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("cadence", [0.5, 0.25])
    def test_telemetry_grid(self, cadence):
        result = _scenario(TelemetrySpec(cadence=cadence))
        ticks = int(result.config.duration / cadence)
        expected = [k * cadence for k in range(1, ticks + 1)]
        series = result.sampler.as_dict()
        for name in ("rate.SynsRecv", "rate.Drops", "gauge.listen_depth",
                     "gauge.accept_depth"):
            assert [t for t, _ in series[name].samples()] == expected
        assert result.sampler.samples_taken == ticks
        # The Figure 10 grid does not follow the telemetry cadence.
        assert result.queues.listen_series()[0].tolist() == [
            k * 0.5 for k in range(13)]

    @pytest.mark.parametrize("spec, events", [
        (None, 12),
        (TelemetrySpec(), 12 + 12),
        (TelemetrySpec(cadence=0.25), 12 + 24),
    ], ids=["detached", "cadence-0.5", "cadence-0.25"])
    def test_one_event_per_tick(self, spec, events):
        from repro.tcp.listener import DefenseConfig
        from tests.conftest import MiniNet

        net = MiniNet()
        listener = net.server.tcp.listen(80, DefenseConfig())
        sampler = SimSampler(net.engine, hub_for(net.engine), spec,
                             listener=listener,
                             cpu_hosts=[net.server, net.client],
                             duration=6.0)
        sampler.start()
        net.run(until=6.0)
        assert net.engine.stats()["events_processed"] == events
        assert len(sampler.queues.listen_depth) == 13
        assert len(sampler.cpu.series["server"]) == 6


class TestTelemetryIsReadOnly:
    """Telemetry only reads: turning it on, at either cadence and with
    attribution, leaves the model's counters, connection outcomes and
    Figure 9/10 series exactly as a detached run has them."""

    @staticmethod
    def _observables(summary):
        series = {"listen": summary.queues.listen_series(),
                  "accept": summary.queues.accept_series()}
        for name in summary.cpu.series:
            series[f"cpu.{name}"] = summary.cpu.utilization(name)
        return {
            "counters": summary.counters,
            "connections": {label: summary.connections.counts(label)
                            for label in summary.connections.labels()},
            "series": {name: (times.tolist(), values.tolist(),
                              str(values.dtype))
                       for name, (times, values) in series.items()},
        }

    @pytest.mark.parametrize("cell", ["syn-puzzles", "overload-oldest"])
    def test_counters_connections_and_figure_series_unchanged(self, cell):
        from dataclasses import replace

        from repro.experiments.scenario import ScenarioConfig
        from repro.experiments.summary import run_scenario_summary
        from repro.faults.chaos import overload_matrix

        base = ScenarioConfig(time_scale=0.01, seed=1)
        if cell == "overload-oldest":
            config = overload_matrix(base)[cell].config
        else:
            config = replace(base, attack_style="syn")
        observed = [
            self._observables(run_scenario_summary(
                replace(config, telemetry=telemetry)))
            for telemetry in (None, TelemetrySpec(),
                              TelemetrySpec(cadence=0.25, attribution=True))]
        assert observed[0]["counters"]["server"]["SynsRecv"] > 0
        assert observed[1] == observed[0]
        assert observed[2] == observed[0]


class TestChromeCounterEvents:
    def test_counter_event_layout(self):
        series = TimeSeries("rate.SynsRecv", "rate", 0.5)
        series.record(0.5, 12.0)
        series.record(1.0, 8.0)
        events = chrome_counter_events({series.name: series})
        assert events == [
            {"name": "rate.SynsRecv", "ph": "C", "ts": 0.5e6,
             "pid": 1, "tid": 0, "args": {"value": 12.0}},
            {"name": "rate.SynsRecv", "ph": "C", "ts": 1.0e6,
             "pid": 1, "tid": 0, "args": {"value": 8.0}},
        ]

    def test_events_sort_by_time_then_name(self):
        a = TimeSeries("a", "gauge", 1.0)
        b = TimeSeries("b", "gauge", 1.0)
        a.record(2.0, 1.0)
        b.record(1.0, 1.0)
        events = chrome_counter_events({"a": a, "b": b})
        assert [(e["ts"], e["name"]) for e in events] == [
            (1.0e6, "b"), (2.0e6, "a")]
