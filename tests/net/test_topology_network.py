"""Topology and network-fabric tests: paths, delivery, spoofing blackholes,
captures."""

import itertools

import pytest

from repro.errors import NetworkError
from repro.net.addresses import AddressAllocator
from repro.net.network import Network
from repro.net.packet import Packet, TCPFlags
from repro.net.topology import GBPS, MBPS, Topology, deter_topology
from repro.sim.engine import Engine


class TestTopology:
    def test_deter_shape(self):
        topo = deter_topology(15, 10)
        names = topo.host_names()
        assert "server" in names
        assert sum(1 for n in names if n.startswith("client")) == 15
        assert sum(1 for n in names if n.startswith("attacker")) == 10

    def test_client_path_crosses_backbone(self):
        topo = deter_topology(2, 0)
        links = topo.path_links("client0", "server")
        assert len(links) == 3  # access up, backbone hop, access down
        assert links[0].rate_bps == 100 * MBPS
        assert links[-1].rate_bps == GBPS

    def test_path_cache_stable(self):
        topo = deter_topology(1, 0)
        assert topo.path_links("client0", "server") is \
            topo.path_links("client0", "server")

    def test_unknown_host_rejected(self):
        topo = deter_topology(1, 0)
        with pytest.raises(NetworkError):
            topo.path_links("nope", "server")

    def test_duplicate_host_rejected(self):
        topo = Topology()
        topo.add_router("r1")
        topo.attach_host("h", "r1", rate_bps=GBPS)
        with pytest.raises(NetworkError):
            topo.attach_host("h", "r1", rate_bps=GBPS)

    def test_attach_to_non_router_rejected(self):
        topo = Topology()
        topo.add_router("r1")
        topo.attach_host("h", "r1", rate_bps=GBPS)
        with pytest.raises(NetworkError):
            topo.attach_host("h2", "h", rate_bps=GBPS)

    def test_full_duplex_links_are_independent(self):
        topo = deter_topology(1, 0)
        up = topo.link("client0", "r2")
        down = topo.link("r2", "client0")
        assert up is not down

    @pytest.mark.parametrize("n_clients,n_attackers",
                             [(1, 0), (2, 1), (4, 3)])
    def test_every_path_follows_the_attachments(self, n_clients,
                                                n_attackers):
        """Access uplink, the direct backbone link when the routers
        differ, then the access downlink — for every ordered host pair."""
        topo = deter_topology(n_clients, n_attackers)
        for src, dst in itertools.permutations(topo.host_names(), 2):
            src_router = topo._attachment[src]
            dst_router = topo._attachment[dst]
            expected = [topo.link(src, src_router)]
            if src_router != dst_router:
                expected.append(topo.link(src_router, dst_router))
            expected.append(topo.link(dst_router, dst))
            route = topo.path_links(src, dst)
            assert [id(link) for link in route] == \
                [id(link) for link in expected], (src, dst)

    def test_disconnected_routers_have_no_path(self):
        topo = Topology()
        topo.add_router("r1")
        topo.add_router("r2")
        topo.attach_host("a", "r1", rate_bps=GBPS)
        topo.attach_host("b", "r2", rate_bps=GBPS)
        with pytest.raises(NetworkError, match="no path"):
            topo.path_links("a", "b")


class _StubHost:
    def __init__(self, name, address):
        self.name = name
        self.address = address
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def _fabric(n_clients=1, n_attackers=0):
    engine = Engine()
    topo = deter_topology(n_clients, n_attackers)
    network = Network(engine, topo)
    allocator = AddressAllocator()
    server = _StubHost("server", allocator.allocate())
    clients = [_StubHost(f"client{i}", allocator.allocate())
               for i in range(n_clients)]
    network.register(server)
    for client in clients:
        network.register(client)
    return engine, network, server, clients


class TestNetwork:
    def test_delivery_with_latency(self):
        engine, network, server, clients = _fabric()
        packet = Packet(src_ip=clients[0].address, dst_ip=server.address,
                        src_port=1000, dst_port=80, flags=TCPFlags.SYN)
        network.send(clients[0], packet)
        engine.run()
        assert server.received == [packet]
        # 3 hops × 0.5 ms propagation + tiny serialization.
        assert 0.0015 < engine.now < 0.002

    def test_unregistered_destination_blackholed(self):
        engine, network, server, clients = _fabric()
        packet = Packet(src_ip=server.address, dst_ip=0xAC100001,
                        src_port=80, dst_port=1000,
                        flags=TCPFlags.SYN | TCPFlags.ACK)
        network.send(server, packet)
        engine.run()
        assert network.packets_blackholed == 1
        assert server.received == []

    def test_droptailed_reply_counts_as_drop_not_blackhole(self):
        """A reply that droptails on its own uplink never reached the
        backbone to be blackholed — it is an ordinary drop. A burst of
        replies to a spoofed source must therefore split exactly into
        blackholed (made it onto the wire) and dropped (queue overflow),
        with the taps seeing the matching events."""
        engine, network, server, clients = _fabric()
        events = []
        network.add_tap(lambda now, packet, event: events.append(event))
        # 1 Gbps uplink: a same-instant burst of 10 MB cannot all fit in
        # the uplink buffer, so the tail droptails before the backbone.
        for _ in range(1000):
            packet = Packet(src_ip=server.address, dst_ip=0xAC100001,
                            src_port=80, dst_port=1000,
                            flags=TCPFlags.SYN | TCPFlags.ACK,
                            payload_bytes=10_000)
            network.send(server, packet)
        engine.run()
        assert network.packets_dropped > 0
        assert network.packets_blackholed > 0
        assert (network.packets_dropped + network.packets_blackholed
                == 1000)
        assert network.packets_delivered == 0
        assert events.count("blackhole") == network.packets_blackholed
        assert events.count("drop") == network.packets_dropped

    def test_spoofed_source_still_delivers_to_target(self):
        """Spoofing the *source* must not affect forward delivery."""
        engine, network, server, clients = _fabric()
        packet = Packet(src_ip=0xAC100001, dst_ip=server.address,
                        src_port=1000, dst_port=80, flags=TCPFlags.SYN)
        network.send(clients[0], packet)
        engine.run()
        assert server.received == [packet]

    def test_duplicate_registration_rejected(self):
        engine, network, server, clients = _fabric()
        with pytest.raises(NetworkError):
            network.register(_StubHost("server", server.address))

    def test_unattached_host_rejected(self):
        engine, network, server, clients = _fabric()
        with pytest.raises(NetworkError):
            network.register(_StubHost("ghost", 0x0B000001))

    def test_saturating_link_drops(self):
        engine, network, server, clients = _fabric()
        # 100 Mbps uplink, 256 KB buffer: a 10 MB burst cannot all fit.
        for _ in range(1000):
            packet = Packet(src_ip=clients[0].address,
                            dst_ip=server.address, src_port=1000,
                            dst_port=80, payload_bytes=10_000)
            network.send(clients[0], packet)
        engine.run()
        assert network.packets_dropped > 0
        assert len(server.received) < 1000
