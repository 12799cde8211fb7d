"""Stack-level edge cases: port allocation, RST discipline, demux."""

import random

import pytest

import repro.tcp.stack as stack_module
from repro.errors import NetworkError, PortsExhaustedError
from repro.net.packet import Packet, TCPFlags
from repro.tcp.stack import EPHEMERAL_BASE, EPHEMERAL_SPAN
from tests.conftest import MiniNet


class TestPortAllocation:
    def test_ephemeral_ports_unique_per_destination(self, mini_net):
        mini_net.server.tcp.listen(80)
        ports = set()
        for _ in range(50):
            conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
            ports.add(conn.local_port)
            conn.abort()
        assert len(ports) == 50
        assert all(EPHEMERAL_BASE <= p < EPHEMERAL_BASE + EPHEMERAL_SPAN
                   for p in ports)

    def test_duplicate_listener_rejected(self, mini_net):
        mini_net.server.tcp.listen(80)
        with pytest.raises(NetworkError):
            mini_net.server.tcp.listen(80)

    def test_exhausted_port_space_allocates_like_a_full_scan(
            self, mini_net, monkeypatch):
        """Once every port toward a peer is taken, connect() raises
        PortsExhaustedError without rescanning, and a port freed later is
        handed out exactly as the cursor scan would pick it: the first
        free port at or after the cursor, wrapping around."""
        span = 16
        monkeypatch.setattr(stack_module, "EPHEMERAL_SPAN", span)
        stack = mini_net.client.tcp
        peers = [(0x0B0B0B0B, 80), (0x0B0B0B0C, 80)]
        rng = random.Random(7)
        live = []

        def scan(peer):
            cursor = stack._next_ephemeral
            for offset in range(span):
                port = EPHEMERAL_BASE + (cursor - EPHEMERAL_BASE
                                         + offset) % span
                if (port,) + peer not in stack._clients:
                    return port
            return None

        exhausted = 0
        for _ in range(600):
            if live and rng.random() < 0.35:
                live.pop(rng.randrange(len(live))).abort()
                continue
            peer = peers[0] if rng.random() < 0.8 else peers[1]
            expected = scan(peer)
            if expected is None:
                with pytest.raises(PortsExhaustedError):
                    stack.connect(*peer)
                exhausted += 1
                continue
            connection = stack.connect(*peer)
            assert connection.local_port == expected
            live.append(connection)
        assert exhausted > 50


class TestRstDiscipline:
    def test_never_rst_an_rst(self, mini_net):
        """RST storms must not be possible: RST in, nothing out."""
        rst = Packet(src_ip=mini_net.client.address,
                     dst_ip=mini_net.server.address,
                     src_port=5555, dst_port=4242, flags=TCPFlags.RST)
        mini_net.network.send(mini_net.client, rst)
        mini_net.run(until=0.5)
        assert mini_net.server.mib["OutRsts"] == 0

    def test_stray_data_draws_rst(self, mini_net):
        stray = Packet(src_ip=mini_net.client.address,
                       dst_ip=mini_net.server.address,
                       src_port=5555, dst_port=4242,
                       flags=TCPFlags.PSH | TCPFlags.ACK,
                       payload_bytes=100)
        mini_net.network.send(mini_net.client, stray)
        mini_net.run(until=0.5)
        assert mini_net.server.mib["OutRsts"] == 1

    def test_segment_counter(self, mini_net):
        mini_net.server.tcp.listen(80)
        mini_net.client.tcp.connect(mini_net.server.address, 80)
        mini_net.run(until=0.5)
        assert mini_net.server.mib["InSegs"] >= 2  # SYN + ACK


class TestDemux:
    def test_established_server_connection_receives_data(self, mini_net):
        listener = mini_net.server.tcp.listen(80)
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        conn.on_established = lambda c: c.send_data(10, ("gettext", 1))
        mini_net.run(until=0.5)
        server_conn = listener.accept()
        assert server_conn is not None
        seen = []
        server_conn.attach_reader(lambda c, n, d: seen.append(d))
        assert seen == [("gettext", 1)]

    def test_open_connections_accounting(self, mini_net):
        listener = mini_net.server.tcp.listen(80)
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        mini_net.run(until=0.5)
        assert mini_net.server.tcp.open_connections == 1
        server_conn = listener.accept()
        server_conn.close()
        assert mini_net.server.tcp.open_connections == 0

    def test_listener_lookup(self, mini_net):
        listener = mini_net.server.tcp.listen(80)
        assert mini_net.server.tcp.listener(80) is listener
        assert mini_net.server.tcp.listener(81) is None
