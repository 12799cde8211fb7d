"""Host throughput accounting owned by the network.

``Network.add_throughput_tap`` fills a meter's series where each packet is
handled — ``Network.send``/``_deliver`` and both compiled flood paths —
instead of through a per-packet observer call. These tests hold it to
the generic observer, ``HostThroughput.tap`` installed with
``Network.add_tap``: every bin and every total must agree.
"""

import random
import sys

import pytest

from repro.hosts.attacker import AttackerConfig, SynFlooder
from repro.metrics.throughput import HostThroughput
from repro.net import packet as packet_module
from repro.net.fabric import CFabricPath
from repro.net.network import Network
from repro.net.packet import FLAG_ACK, FLAG_PSHACK, FLAG_SYNACK, Packet
from repro.net.topology import MBPS, Topology
from repro.sim.engine import Engine
from repro.tcp.constants import DefenseMode
from repro.tcp.listener import DefenseConfig
from tests.conftest import MiniNet

SERIES = ("rx", "tx", "rx_goodput", "tx_goodput")

#: An address no host registers: packets to it are blackholed.
SPOOFED_IP = 0xC6336401


def _meter_state(meter):
    return {name: (dict(getattr(meter, name)._bins),
                   getattr(meter, name).total) for name in SERIES}


class _Sink:
    """A registered host that keeps what it is delivered."""

    def __init__(self, name, address):
        self.name = name
        self.address = address
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def _network():
    """Server and client on one router; the server's uplink is slow and
    holds barely two frames, so a burst from it is partly droptailed."""
    topology = Topology()
    topology.add_router("r1")
    topology.attach_host("server", "r1", rate_bps=1 * MBPS,
                         buffer_bytes=200)
    topology.attach_host("client0", "r1", rate_bps=100 * MBPS)
    engine = Engine()
    network = Network(engine, topology)
    server = _Sink("server", 0x0A010001)
    client = _Sink("client0", 0x0A010002)
    network.register(server)
    network.register(client)
    return engine, network, server, client


def test_network_accounting_equals_the_generic_tap():
    engine, network, server, client = _network()
    meters, references = [], []
    for host in (server, client):
        meter = HostThroughput(host.address, bin_width=0.25)
        reference = HostThroughput(host.address, bin_width=0.25)
        network.add_throughput_tap(meter)
        network.add_tap(reference.tap)
        meters.append(meter)
        references.append(reference)
    rng = random.Random(3)
    for i in range(400):
        at = rng.uniform(0.0, 2.0)
        kind = i % 4
        if kind == 0:    # client request with payload
            src, packet = client, Packet(
                src_ip=client.address, dst_ip=server.address,
                src_port=40000 + i, dst_port=80, flags=FLAG_PSHACK,
                payload_bytes=rng.randint(1, 1500))
        elif kind == 1:  # bare ACK to the server
            src, packet = client, Packet(
                src_ip=client.address, dst_ip=server.address,
                src_port=40000 + i, dst_port=80, flags=FLAG_ACK)
        elif kind == 2:  # multi-frame response from the slow uplink
            src, packet = server, Packet(
                src_ip=server.address, dst_ip=client.address,
                src_port=80, dst_port=40000 + i, flags=FLAG_PSHACK,
                payload_bytes=rng.randint(1, 3000), extra_frames=1)
        else:            # reply to a spoofed, unregistered source
            src, packet = server, Packet(
                src_ip=server.address, dst_ip=SPOOFED_IP + i,
                src_port=80, dst_port=40000 + i, flags=FLAG_SYNACK)
        engine.schedule_at(at, network.send, src, packet)
    engine.run()
    assert network.packets_delivered > 0
    assert network.packets_blackholed > 0
    assert network.packets_dropped > 0
    for meter, reference in zip(meters, references):
        state = _meter_state(meter)
        assert state == _meter_state(reference)
        assert all(total > 0 for _, total in state.values())


def _spoofed_flood(tapped):
    """A spoofed-SYN flood against a cookie listener whose one-slot queue
    is full, so every SYN and every reply is eligible for a fast path;
    a capture tap (*tapped*) forces the per-packet pipeline instead."""
    net = MiniNet(n_attackers=1)
    meter = HostThroughput(net.server.address, bin_width=0.5)
    net.network.add_throughput_tap(meter)
    listener = net.server.tcp.listen(80, DefenseConfig(
        mode=DefenseMode.SYNCOOKIES, backlog=1))
    captured = []
    if tapped:
        net.network.add_tap(
            lambda now, packet, event: captured.append(event))
    flooder = SynFlooder(net.attackers[0], AttackerConfig(
        server_ip=net.server.address, rate=2000.0))
    first_uid = next(packet_module._uid_counter)
    flooder.start()
    net.run(until=2.0)
    flooder.stop()
    packets_built = next(packet_module._uid_counter) - first_uid - 1
    return meter, listener, flooder, packets_built, captured


@pytest.mark.skipif(CFabricPath is None,
                    reason="compiled fabric fold not adopted")
def test_fast_paths_account_like_the_per_packet_path():
    fast, fast_listener, fast_flooder, fast_built, _ = _spoofed_flood(
        tapped=False)
    slow, _, slow_flooder, slow_built, captured = _spoofed_flood(
        tapped=True)
    core = sys.modules[CFabricPath.__module__]
    assert isinstance(fast_flooder._fast, core.SynFastPath)
    assert isinstance(fast_listener._fast_reply, core.ReplyFastPath)
    syns = fast_flooder.stats.syns_sent
    assert syns == slow_flooder.stats.syns_sent > 1000
    # Untapped, neither the SYNs nor the cookie replies became packets;
    # tapped, every one of them did.
    assert fast_built < 10 <= syns <= slow_built
    assert captured.count("send") >= syns
    assert _meter_state(fast) == _meter_state(slow)
    assert fast.rx.total > 0 and fast.tx.total > 0
