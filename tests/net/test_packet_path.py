"""The compiled send and deliver, held to the per-packet pipeline.

Two clients open connections to a listener, send a request over each
and read the response (payload packets, so the goodput meters move);
every fifth attempt goes to a closed port and draws a RST. While nothing
observes individual packets, every packet between registered hosts
crosses the compiled ``DeliveryPath`` (see :mod:`repro.net.floodpath`).
Each test here triggers one reason for that path to hand a packet to
the Python ``Network.send`` or ``Network._deliver``, or to call a host's
own ``receive``, and requires the run to leave exactly the state of the
same run with a capture tap installed from t=0, which sends every packet
through the per-packet pipeline: link state, network counters, the
throughput meters, every MIB, the hosts' RNG state, engine event counts
and what the applications saw.
"""

import sys

import pytest

from repro.metrics.throughput import HostThroughput
from repro.net.fabric import CFabricPath
from repro.net.network import Network
from repro.net.packet import FLAG_ACK, Packet
from repro.sim.reference import ReferenceHeapEngine
from repro.tcp.listener import DefenseConfig
from tests import conftest
from tests.conftest import MiniNet
from tests.net.test_flood_declines import _at, _EveryThirdDropped

UNTIL = 0.5
#: When a mid-run intervention lands: packets are in flight by then.
MID_RUN = 0.2003
ATTEMPTS = 60
#: An address no host registers.
UNREGISTERED_IP = 0xC6336401
METERS = ("rx", "tx", "rx_goodput", "tx_goodput")


def _traffic(net, seen):
    """Schedule the clients' attempts; applications log to *seen*."""
    server = net.server
    listener = server.tcp.listen(80, DefenseConfig())

    def on_acceptable():
        connection = listener.accept()
        connection.attach_reader(
            lambda conn, nbytes, data: conn.send_data(nbytes * 20, data))

    listener.on_acceptable = on_acceptable

    def attempt(i):
        client = net.clients[i % len(net.clients)]
        port = 81 if i % 5 == 4 else 80
        connection = client.tcp.connect(server.address, port)
        connection.on_established = lambda conn: conn.send_data(100 + i, i)
        connection.on_data = lambda conn, nbytes, data: seen.append(
            ("data", i, nbytes, net.engine.now))
        connection.on_reset = lambda conn: seen.append(
            ("reset", i, net.engine.now))

    for i in range(ATTEMPTS):
        net.engine.schedule_at(i * 0.007, attempt, i)


def _state(net, meters, seen):
    engine = net.engine.stats()
    hosts = [net.server] + net.clients
    return {
        "seen": seen,
        "mib": net.server.obs.counters.snapshot(),
        "rng": [host.rng.getstate() for host in hosts],
        "links": [(link._next_free, link.packets_sent, link.packets_dropped,
                   link.packets_lost, link.bytes_sent, link.packets_faulted)
                  for link in net.topology.all_links()],
        "network": (net.network.packets_delivered,
                    net.network.packets_dropped,
                    net.network.packets_blackholed),
        "meters": [{name: (dict(getattr(meter, name)._bins),
                           getattr(meter, name).total) for name in METERS}
                   for meter in meters],
        "engine": {key: engine[key] for key in (
            "events_scheduled", "events_processed", "events_cancelled",
            "sim_seconds")},
    }


def _run(intervene, tapped, net=None):
    """Run the traffic with *intervene(net)* applied before it starts;
    with *tapped*, a capture tap sees every packet from t=0. Returns the
    state it leaves and how many packets the Python ``Network._deliver``
    delivered."""
    net = net if net is not None else MiniNet(n_clients=2)
    meters = []
    for host in [net.server] + net.clients:
        meter = HostThroughput(host.address, bin_width=0.05)
        net.network.add_throughput_tap(meter)
        meters.append(meter)
    if tapped:
        net.network.add_tap(lambda now, packet, event: None)
    seen = []
    _traffic(net, seen)
    extra = intervene(net)
    delivered = []
    oracle = Network._deliver

    def counting(network, host, packet):
        delivered.append(packet.uid)
        oracle(network, host, packet)

    Network._deliver = counting
    try:
        net.run(until=UNTIL)
    finally:
        Network._deliver = oracle
    state = _state(net, meters, seen)
    if extra is not None:
        state["extra"] = extra()
    return state, len(delivered)


def _assert_matches_per_packet(intervene):
    """The intervened run equals its per-packet twin; returns its state."""
    state, python_delivered = _run(intervene, tapped=False)
    reference, reference_delivered = _run(intervene, tapped=True)
    assert state == reference
    assert reference_delivered == state["network"][0]
    assert any(event[0] == "data" for event in state["seen"])
    assert any(event[0] == "reset" for event in state["seen"])
    if CFabricPath is not None:
        # The compiled delivery carried part of the traffic at least.
        assert python_delivered < reference_delivered
    return state


def test_compiled_send_is_bound_when_adopted():
    network = MiniNet().network
    if CFabricPath is None:
        assert "send" not in vars(network)
        return
    core = sys.modules[CFabricPath.__module__]
    assert isinstance(network.send.__self__, core.DeliveryPath)


def test_payload_packets_through_the_goodput_meters():
    state = _assert_matches_per_packet(lambda net: None)
    server, client = state["meters"][0], state["meters"][1]
    for meter in (server, client):
        assert meter["rx_goodput"][1] > 0 and meter["tx_goodput"][1] > 0
    assert server["tx_goodput"][1] > server["rx_goodput"][1]


def test_capture_tap_added_while_packets_are_in_flight():
    def intervene(net):
        captured = []
        _at(net, MID_RUN, lambda: net.network.add_tap(
            lambda now, packet, event: captured.append((event, packet))))

        def seen():
            sent = {id(packet) for event, packet in captured
                    if event == "send"}
            # Deliveries of packets sent before the tap was installed.
            earlier = sum(1 for event, packet in captured
                          if event == "deliver" and id(packet) not in sent)
            return earlier, [(event, packet.flags, packet.src_port,
                              packet.dst_port, packet.size_bytes)
                             for event, packet in captured]
        return seen

    state = _assert_matches_per_packet(intervene)
    earlier, captured = state["extra"]
    assert earlier > 0 and captured


def test_noop_packet_fault_hook():
    def intervene(net):
        faulted = []

        def install():
            net.network.packet_fault = lambda now, packet: faulted.append(
                (now, packet.flags))
        _at(net, MID_RUN, install)
        return lambda: faulted

    state = _assert_matches_per_packet(intervene)
    assert state["extra"]


def test_link_fault_hook_on_a_client_uplink():
    def intervene(net):
        uplink = net.topology.path_links("client0", "server")[0]
        hook = _EveryThirdDropped()
        _at(net, MID_RUN, lambda: setattr(uplink, "fault", hook))
        return lambda: hook.calls

    state = _assert_matches_per_packet(intervene)
    assert state["extra"] > 0
    assert any(link[5] for link in state["links"])


@pytest.mark.parametrize("target", ["server.receive", "stack.receive",
                                    "client.send"])
def test_instance_level_override(target):
    def intervene(net):
        owner = {"server": net.server, "stack": net.server.tcp,
                 "client": net.client}[target.split(".")[0]]
        name = target.split(".")[1]
        original = getattr(owner, name)
        calls = []

        def spy(packet):
            calls.append((net.engine.now, packet.flags))
            original(packet)

        _at(net, MID_RUN, lambda: setattr(owner, name, spy))
        return lambda: calls

    state = _assert_matches_per_packet(intervene)
    assert state["extra"]


def test_reply_to_an_unregistered_address():
    def intervene(net):
        # A bare ACK from a spoofed source matches nothing on the server,
        # which answers it with a RST that nobody can receive.
        def stray_ack():
            net.client.send(Packet(UNREGISTERED_IP, net.server.address,
                                   40000, 80, 1, 1, FLAG_ACK))
        _at(net, MID_RUN, stray_ack)
        return lambda: net.server.mib["OutRsts"]

    state = _assert_matches_per_packet(intervene)
    assert state["network"][2] == 1
    assert state["extra"] > 0


def test_a_network_on_the_reference_heap_runs_per_packet(monkeypatch):
    """The compiled send needs the compiled engine: a network built on
    the reference heap keeps the Python send, and the traffic leaves
    the state it leaves on the compiled engine."""
    compiled, _ = _run(lambda net: None, tapped=False)
    monkeypatch.setattr(conftest, "Engine", ReferenceHeapEngine)
    net = MiniNet(n_clients=2)
    assert "send" not in vars(net.network)
    state, delivered = _run(lambda net: None, tapped=False, net=net)
    assert state == compiled
    assert delivered == state["network"][0]
