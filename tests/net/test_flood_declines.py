"""The flood fast paths' declines, held to the per-packet pipeline.

A spoofed-SYN flood from one :class:`SynFlooder` against a SYN-cookie
listener whose one listen slot is held runs on the fast paths while
nothing observes individual packets. Each test here triggers one of the
reasons :mod:`repro.net.floodpath` documents for handing a SYN or a reply
to the per-packet pipeline instead, and requires the run to leave exactly
the state of the same run with a capture tap installed from t=0, which
materializes every packet: listener stats, the MIB, both hosts' RNG
state, link state, network counters and engine event counts.
"""

import dataclasses
import random

import pytest

from repro.hosts.attacker import AttackerConfig, SynFlooder
from repro.metrics.throughput import HostThroughput
from repro.net import packet as packet_module
from repro.net.addresses import SpoofingPool, format_ip
from repro.net.fabric import CFabricPath
from repro.net.packet import FLAG_SYN, Packet, mss_options
from repro.sim.reference import ReferenceHeapEngine
from repro.tcp.connection import ServerConnection
from repro.tcp.constants import DEFAULT_MSS, DefenseMode
from repro.tcp.listener import DefenseConfig
from tests import conftest
from tests.conftest import MiniNet

RATE = 2000.0
UNTIL = 0.4
#: When a mid-run intervention lands: SYNs are in flight by then.
MID_RUN = 0.2003


def _predicted_syns(flooder, n):
    """The (src_ip, src_port) of *flooder*'s next *n* SYNs: its draws,
    replayed on a copy of its host's RNG (nothing else draws from it)."""
    rng = random.Random()
    rng.setstate(flooder.host.rng.getstate())
    pool = SpoofingPool(rng, base=format_ip(flooder._pool._base),
                        span=flooder._pool._span)
    syns = []
    for _ in range(n):
        syns.append((pool.draw(), rng.randrange(1024, 65536)))
        rng.getrandbits(32)
    return syns


def _state(net, listener, flooder):
    engine = net.engine.stats()
    hosts = [net.server, net.client, net.attackers[0]]
    return {
        "listener": dataclasses.asdict(listener.stats),
        "mib": net.server.obs.counters.snapshot(),
        "rng": [host.rng.getstate() for host in hosts],
        "links": [(link._next_free, link.packets_sent, link.packets_dropped,
                   link.packets_lost, link.bytes_sent, link.packets_faulted)
                  for link in net.topology.all_links()],
        "network": (net.network.packets_delivered,
                    net.network.packets_dropped,
                    net.network.packets_blackholed),
        "engine": {key: engine[key] for key in (
            "events_scheduled", "events_processed", "events_cancelled",
            "sim_seconds")},
        "syns_sent": flooder.stats.syns_sent,
        "segments": [host.mib["InSegs"] for host in hosts],
    }


def _flood(intervene, tapped):
    """Run the flood with *intervene(net, flooder)* applied before it
    starts; with *tapped*, a capture tap sees every packet from t=0.
    Returns the state it leaves, the tap's events and the number of
    packets built."""
    return _flood_on(MiniNet(n_attackers=1), intervene, tapped)


def _flood_on(net, intervene, tapped):
    server = net.server
    listener = server.tcp.listen(80, DefenseConfig(
        mode=DefenseMode.SYNCOOKIES, backlog=1))
    listener.handle_syn(Packet(
        src_ip=0xC6336401, dst_ip=server.address, src_port=40000,
        dst_port=80, seq=1, flags=FLAG_SYN,
        options=mss_options(DEFAULT_MSS)))
    net.network.add_throughput_tap(HostThroughput(server.address))
    events = []
    if tapped:
        net.network.add_tap(lambda now, packet, event: events.append(event))
    flooder = SynFlooder(net.attackers[0], AttackerConfig(
        server_ip=server.address, rate=RATE))
    extra = intervene(net, flooder)
    first_uid = next(packet_module._uid_counter)
    flooder.start()
    net.run(until=UNTIL)
    flooder.stop()
    built = next(packet_module._uid_counter) - first_uid - 1
    state = _state(net, listener, flooder)
    if extra is not None:
        state["extra"] = extra()
    return state, events, built


def _assert_matches_per_packet(intervene):
    """The intervened run equals its fully materialized twin; returns
    the untapped run's tap events and packet count."""
    state, events, built = _flood(intervene, tapped=False)
    reference, _, reference_built = _flood(intervene, tapped=True)
    assert state == reference
    assert state["syns_sent"] == int(RATE * UNTIL)
    assert reference_built >= state["syns_sent"]
    if CFabricPath is not None:
        # The fast paths ran for part of the flood at least.
        assert built < reference_built
    return state, events


def _at(net, when, action):
    net.engine.schedule_at(when, action)


class _EveryThirdDropped:
    """A link fault hook: every third frame offered is dropped."""

    def __init__(self):
        self.calls = 0

    def classify(self, now):
        self.calls += 1
        return "drop" if self.calls % 3 == 0 else None


def test_capture_tap_added_while_syns_are_in_flight():
    seen = []

    def intervene(net, flooder):
        _at(net, MID_RUN, lambda: net.network.add_tap(
            lambda now, packet, event: seen.append((event, packet))))

    _assert_matches_per_packet(intervene)
    # SYNs sent before the tap arrived after it, as packets of their own.
    sent = {id(packet) for event, packet in seen if event == "send"}
    assert sent
    assert any(id(packet) not in sent
               for event, packet in seen if event == "deliver")


def test_noop_packet_fault_hook():
    faulted = []

    def intervene(net, flooder):
        def install():
            net.network.packet_fault = lambda now, packet: faulted.append(
                packet.flags)
        _at(net, MID_RUN, install)

    _assert_matches_per_packet(intervene)
    assert faulted


@pytest.mark.parametrize("uplink", ["attacker0", "server"])
def test_link_fault_hook(uplink):
    def intervene(net, flooder):
        link = net.topology.path_links(
            uplink, "client0" if uplink == "server" else "server")[0]
        hook = _EveryThirdDropped()
        _at(net, MID_RUN, lambda: setattr(link, "fault", hook))
        return lambda: hook.calls

    state, _ = _assert_matches_per_packet(intervene)
    assert state["extra"] > 0
    assert any(link[5] for link in state["links"])


@pytest.mark.parametrize("target", ["bot.send", "server.receive",
                                    "stack.receive"])
def test_instance_level_override(target):
    calls = []

    def intervene(net, flooder):
        owner = {"bot": net.attackers[0], "server": net.server,
                 "stack": net.server.tcp}[target.split(".")[0]]
        name = target.split(".")[1]
        original = getattr(owner, name)

        def spy(packet):
            calls.append(packet.flags)
            original(packet)

        _at(net, MID_RUN, lambda: setattr(owner, name, spy))

    _assert_matches_per_packet(intervene)
    assert calls


def test_server_send_override_materializes_replies():
    replies = []

    def intervene(net, flooder):
        server = net.server
        original = server.send

        def spy(packet):
            replies.append(packet.dst_ip)
            original(packet)

        _at(net, MID_RUN, lambda: setattr(server, "send", spy))

    _assert_matches_per_packet(intervene)
    assert replies


def test_spoofed_source_with_a_tx_meter():
    def intervene(net, flooder):
        src_ip, _ = _predicted_syns(flooder, 50)[49]
        meter = HostThroughput(src_ip)
        net.network.add_throughput_tap(meter)
        return lambda: (dict(meter.tx._bins), meter.tx.total)

    state, _ = _assert_matches_per_packet(intervene)
    _, total = state["extra"]
    assert total > 0


def test_spoofed_flow_owned_by_a_live_connection(monkeypatch):
    established = []
    stray_syns = []
    handle = ServerConnection.handle

    def counting_handle(connection, packet):
        if packet.flags == FLAG_SYN:
            stray_syns.append(packet.src_port)
        handle(connection, packet)

    monkeypatch.setattr(ServerConnection, "handle", counting_handle)

    def intervene(net, flooder):
        # Spoof the client's own address, and let the client hold a live
        # connection on the port of the flood's 100th SYN: that SYN
        # collides with it on the server.
        client = net.client
        flooder._pool = SpoofingPool(flooder.host.rng,
                                     base=format_ip(client.address), span=1)
        _, port = _predicted_syns(flooder, 100)[99]
        client.tcp._next_ephemeral = port
        connection = client.tcp.connect(net.server.address, 80)
        connection.on_established = established.append
        assert connection.local_port == port
        return lambda: sorted(net.server.tcp._servers)

    state, _ = _assert_matches_per_packet(intervene)
    assert established and state["extra"]
    # The colliding SYN reached the connection in both runs.
    assert len(stray_syns) == 2
    assert stray_syns[0] == stray_syns[1]


def test_a_network_on_the_reference_heap_runs_per_packet(monkeypatch):
    """The compiled paths need the compiled engine: on a network built
    with the reference heap they are not built, and the flood leaves the
    state it leaves on the compiled engine."""
    compiled, _, _ = _flood(lambda net, flooder: None, tapped=False)
    monkeypatch.setattr(conftest, "Engine", ReferenceHeapEngine)
    net = MiniNet(n_attackers=1)
    probe = SynFlooder(net.attackers[0], AttackerConfig(
        server_ip=net.server.address))
    net.server.tcp.listen(80)
    assert net.network.syn_fast_path(probe) is None
    assert net.network.reply_fast_path(net.server) is None
    state, _, built = _flood_on(MiniNet(n_attackers=1),
                                lambda net, flooder: None, tapped=False)
    assert state == compiled
    assert built >= state["syns_sent"]
