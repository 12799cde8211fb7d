"""Connection tracker, throughput, CPU and queue sampler tests."""

import numpy as np
import pytest

from repro.hosts.cpu import CPUProfile
from repro.hosts.host import CPUResource
from repro.metrics.connections import ConnectionTracker
from repro.metrics.throughput import HostThroughput
from repro.net.packet import Packet
from repro.obs.timeseries import SimSampler
from repro.sim.engine import Engine
from repro.tcp.listener import DefenseConfig
from tests.conftest import MiniNet


class TestConnectionTracker:
    def _tracker(self):
        engine = Engine()
        return engine, ConnectionTracker(engine, bin_width=1.0)

    def test_lifecycle(self):
        engine, tracker = self._tracker()
        record = tracker.open("client")
        engine.schedule(0.5, lambda: tracker.established(record))
        engine.schedule(1.5, lambda: tracker.completed(record))
        engine.run()
        assert record.connect_time == pytest.approx(0.5)
        assert record.outcome == "completed"

    def test_failure_reason_recorded_once(self):
        engine, tracker = self._tracker()
        record = tracker.open("client")
        tracker.failed(record, "timeout")
        tracker.failed(record, "reset")  # second report ignored
        assert record.reason == "timeout"

    def test_counts_by_label(self):
        engine, tracker = self._tracker()
        a = tracker.open("client")
        tracker.established(a, challenged=True)
        tracker.completed(a)
        b = tracker.open("attacker")
        tracker.established(b)
        counts = tracker.counts("client")
        assert counts == {"attempts": 1, "established": 1, "completed": 1,
                          "failed": 0, "challenged": 1}
        assert tracker.counts("attacker")["completed"] == 0

    def test_established_rate_series(self):
        engine, tracker = self._tracker()

        def open_and_establish():
            record = tracker.open("client")
            tracker.established(record)

        for t in (0.2, 0.3, 1.7):
            engine.schedule(t, open_and_establish)
        engine.run()
        times, rate = tracker.established_rate("client", until=2.0)
        assert list(rate) == [2.0, 1.0]

    def test_completion_percent_attributed_to_attempt_bin(self):
        engine, tracker = self._tracker()
        record = tracker.open("client")        # attempt in bin 0
        engine.schedule(2.5, lambda: tracker.completed(record))
        engine.schedule(0.1, lambda: tracker.open("client"))  # never done
        engine.run()
        times, percent = tracker.completion_percent_series("client", 3.0)
        assert percent[0] == pytest.approx(50.0)
        assert np.isnan(percent[1])

    def test_connect_times(self):
        engine, tracker = self._tracker()
        record = tracker.open("client")
        engine.schedule(0.25, lambda: tracker.established(record))
        engine.run()
        assert list(tracker.connect_times("client")) == [0.25]
        assert len(tracker.connect_times("attacker")) == 0

    def test_established_in_window(self):
        engine, tracker = self._tracker()
        for t in (1.0, 2.0, 5.0):
            engine.schedule(t, lambda: tracker.established(
                tracker.open("attacker")))
        engine.run()
        assert tracker.established_in("attacker", 0.0, 3.0) == 2

    def test_labels_sorted_and_queries_leave_unseen_labels_out(self):
        engine, tracker = self._tracker()
        tracker.open("client")
        tracker.open("attacker")
        tracker.open("client")
        for query in (tracker.attempt_rate, tracker.established_rate):
            times, rate = query("ghost", until=1.0)
            assert list(rate) == [0.0]
        assert tracker.labels() == ["attacker", "client"]


class TestHostThroughput:
    def test_rx_tx_classification(self):
        meter = HostThroughput(address=42, bin_width=1.0)
        rx = Packet(src_ip=1, dst_ip=42, src_port=1, dst_port=2,
                    payload_bytes=1000)
        tx = Packet(src_ip=42, dst_ip=1, src_port=2, dst_port=1,
                    payload_bytes=500)
        meter.tap(0.5, rx, "deliver")
        meter.tap(0.5, tx, "send")
        meter.tap(0.5, rx, "send")      # not ours: src != 42
        meter.tap(0.5, tx, "deliver")   # not ours: dst != 42
        assert meter.rx.total == rx.size_bytes
        assert meter.tx.total == tx.size_bytes
        assert meter.rx_goodput.total == 1000
        assert meter.tx_goodput.total == 500

    def test_mbps_conversion(self):
        meter = HostThroughput(address=42, bin_width=1.0)
        packet = Packet(src_ip=1, dst_ip=42, src_port=1, dst_port=2,
                        payload_bytes=125_000 - 40)
        meter.tap(0.5, packet, "deliver")
        _, mbps = meter.rx_mbps(until=1.0)
        assert mbps[0] == pytest.approx(1.0)  # 125 kB/s = 1 Mbps

    def test_mean_window(self):
        meter = HostThroughput(address=42, bin_width=1.0)
        packet = Packet(src_ip=42, dst_ip=1, src_port=1, dst_port=2,
                        payload_bytes=1_000_000)
        meter.tap(2.5, packet, "send")
        mean = meter.mean_tx_mbps(2.0, 4.0)
        assert mean == pytest.approx(packet.size_bytes * 8 / 1e6 / 2.0)


class TestCpuSampler:
    def test_utilization_per_bin(self, engine):
        class FakeHost:
            name = "h"

            def __init__(self):
                self.cpu = CPUResource(engine, CPUProfile("t", "", 1000.0))

        host = FakeHost()
        sampler = SimSampler(engine, cpu_hosts=[host], duration=3.0)
        sampler.start()
        host.cpu.run(500, lambda: None)  # 0.5 s of work in bin 1
        engine.run(until=3.0)
        times, util = sampler.cpu.utilization("h")
        assert util[0] == pytest.approx(50.0)
        assert util[1] == pytest.approx(0.0)

    def test_capped_at_100(self, engine):
        class FakeHost:
            name = "h"

            def __init__(self):
                self.cpu = CPUResource(engine, CPUProfile("t", "", 1000.0))

        host = FakeHost()
        sampler = SimSampler(engine, cpu_hosts=[host], duration=2.0)
        sampler.start()
        host.cpu.run(5000, lambda: None)
        engine.run(until=2.0)
        _, util = sampler.cpu.utilization("h")
        assert max(util) <= 100.0


class TestQueueSampler:
    def test_depth_sampling(self):
        net = MiniNet()
        listener = net.server.tcp.listen(80, DefenseConfig())
        sampler = SimSampler(net.engine, listener=listener, duration=2.0)
        sampler.start()
        net.client.tcp.connect(net.server.address, 80)
        net.run(until=2.0)
        times, accept_depth = sampler.queues.accept_series()
        assert len(times) >= 3
        assert max(accept_depth) == 1.0  # established, nobody accepts
        _, listen_depth = sampler.queues.listen_series()
        assert max(listen_depth) <= 1.0
