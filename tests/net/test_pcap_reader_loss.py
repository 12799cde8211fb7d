"""Tests for the pcap reader and for probabilistic link loss."""

import io
import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import NetworkError
from repro.net.link import Link
from repro.net.packet import Packet, TCPFlags, TCPOptions
from repro.net.pcapfile import (
    PcapWriter,
    parse_frame,
    packet_to_bytes,
    read_pcap,
)
from repro.puzzles.codec import CHALLENGE_OPCODE, decode_challenge
from repro.puzzles.juels import FlowBinding, JuelsBrainardScheme
from repro.puzzles.params import PuzzleParams
from repro.tcp.connection import ClientConnConfig
from tests.conftest import MiniNet


class TestPcapReader:
    def _roundtrip(self, packets):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        for time, packet in packets:
            writer.write(time, packet)
        buffer.seek(0)
        return list(read_pcap(buffer))

    def test_read_back_what_was_written(self):
        packet = Packet(src_ip=0x0A000002, dst_ip=0x0A000001,
                        src_port=1000, dst_port=80, seq=7, ack=0,
                        flags=TCPFlags.SYN,
                        options=TCPOptions(mss=1460, wscale=7))
        frames = self._roundtrip([(1.5, packet)])
        assert len(frames) == 1
        frame = frames[0]
        assert frame.time == pytest.approx(1.5)
        assert frame.src_ip == 0x0A000002
        assert (frame.src_port, frame.dst_port) == (1000, 80)
        assert frame.flags & 0x02  # SYN
        assert frame.option(2) is not None  # MSS
        assert frame.option(3) is not None  # wscale

    def test_challenge_option_survives_file_roundtrip(self):
        scheme = JuelsBrainardScheme(mode="modeled")
        binding = FlowBinding(0x0A000001, 0x0A000002, 80, 1000, 5)
        challenge = scheme.make_challenge(PuzzleParams(k=2, m=9),
                                          binding, 2.0)
        packet = Packet(src_ip=0x0A000001, dst_ip=0x0A000002, src_port=80,
                        dst_port=1000,
                        flags=TCPFlags.SYN | TCPFlags.ACK,
                        options=TCPOptions(challenge=challenge))
        frames = self._roundtrip([(2.0, packet)])
        block = frames[0].option(CHALLENGE_OPCODE)
        assert block is not None
        decoded = decode_challenge(block.data, binding)
        assert decoded.preimage == challenge.preimage

    def test_payload_accounting(self):
        packet = Packet(src_ip=1, dst_ip=2, src_port=3, dst_port=4,
                        payload_bytes=321, flags=TCPFlags.ACK)
        frames = self._roundtrip([(0.0, packet)])
        assert frames[0].payload_bytes == 321

    def test_bad_magic_rejected(self):
        with pytest.raises(NetworkError):
            list(read_pcap(io.BytesIO(b"\x00" * 24)))

    def test_truncated_frame_rejected(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        writer.write(0.0, Packet(src_ip=1, dst_ip=2, src_port=3,
                                 dst_port=4))
        data = buffer.getvalue()[:-5]
        with pytest.raises(NetworkError):
            list(read_pcap(io.BytesIO(data)))

    def test_parse_rejects_non_tcp(self):
        frame = bytearray(packet_to_bytes(
            Packet(src_ip=1, dst_ip=2, src_port=3, dst_port=4)))
        frame[9] = 17  # UDP
        with pytest.raises(NetworkError):
            parse_frame(0.0, bytes(frame))

    @staticmethod
    def _frame(**bytes_at) -> bytes:
        """A 40-byte IPv4/TCP frame with some bytes overwritten."""
        frame = bytearray(packet_to_bytes(
            Packet(src_ip=1, dst_ip=2, src_port=3, dst_port=4)))
        for index, value in bytes_at.items():
            frame[int(index[1:])] = value
        return bytes(frame)

    def test_parse_rejects_ihl_past_the_frame(self):
        # IHL 15 words = 60 bytes: the TCP header would start past the
        # 40-byte frame.
        with pytest.raises(NetworkError, match="IPv4 header length"):
            parse_frame(0.0, self._frame(b0=0x4F, b9=6))

    def test_parse_rejects_data_offset_past_the_segment(self):
        # Data offset 15 words = 60 bytes in a 20-byte segment.
        with pytest.raises(NetworkError, match="TCP data offset"):
            parse_frame(0.0, self._frame(b0=0x45, b32=0xF0))

    def test_parse_rejects_ihl_below_five_words(self):
        with pytest.raises(NetworkError, match="IPv4 header length"):
            parse_frame(0.0, self._frame(b0=0x41))


_SEGMENTS = st.builds(
    Packet, src_ip=st.integers(0, 2 ** 32 - 1),
    dst_ip=st.integers(0, 2 ** 32 - 1), src_port=st.integers(0, 65535),
    dst_port=st.integers(0, 65535), seq=st.integers(0, 2 ** 32 - 1),
    ack=st.integers(0, 2 ** 32 - 1),
    flags=st.sampled_from([TCPFlags.SYN, TCPFlags.SYN | TCPFlags.ACK,
                           TCPFlags.ACK, TCPFlags.RST]),
    payload_bytes=st.integers(0, 64),
    options=st.sampled_from([None, TCPOptions(mss=1460, wscale=7),
                             TCPOptions(mss=536, ts_val=9, ts_ecr=3)]))


def _parses_or_rejects(frame: bytes) -> None:
    """The decoder contract: a NetworkError, or a frame whose lengths
    add up."""
    try:
        parsed = parse_frame(0.0, frame)
    except NetworkError:
        return
    assert parsed.payload_bytes >= 0


class TestParseFrameFuzz:
    @given(st.binary(max_size=128))
    def test_random_bytes(self, frame):
        _parses_or_rejects(frame)

    @given(_SEGMENTS, st.data())
    def test_truncations(self, packet, data):
        frame = packet_to_bytes(packet)
        cut = data.draw(st.integers(0, len(frame)))
        _parses_or_rejects(frame[:cut])

    @given(_SEGMENTS, st.data())
    def test_bit_flips(self, packet, data):
        frame = bytearray(packet_to_bytes(packet))
        for _ in range(data.draw(st.integers(1, 4))):
            bit = data.draw(st.integers(0, len(frame) * 8 - 1))
            frame[bit // 8] ^= 1 << (bit % 8)
        _parses_or_rejects(bytes(frame))


class TestLinkLoss:
    def test_loss_rate_drops_fraction(self):
        rng = random.Random(3)
        link = Link(rate_bps=1e9, loss_rate=0.3, rng=rng,
                    buffer_bytes=10 ** 9)
        outcomes = [link.offer(i * 0.001, 100) for i in range(2000)]
        lost = sum(1 for o in outcomes if o is None)
        assert lost == link.packets_lost
        assert 0.25 < lost / 2000 < 0.35

    def test_zero_loss_is_default(self):
        link = Link(rate_bps=1e9)
        assert all(link.offer(i * 0.001, 100) is not None
                   for i in range(100))

    def test_validation(self):
        with pytest.raises(NetworkError):
            Link(rate_bps=1e9, loss_rate=1.0, rng=random.Random(1))
        with pytest.raises(NetworkError):
            Link(rate_bps=1e9, loss_rate=0.1)  # rng missing


class TestLossyHandshakes:
    def _lossy_net(self, loss):
        net = MiniNet()
        rng = random.Random(9)
        for link in net.topology.all_links():
            link.loss_rate = loss
            link.rng = rng
        return net

    def test_handshake_survives_loss_via_retransmission(self):
        """20% per-link loss: SYN/SYN-ACK retransmission recovers."""
        net = self._lossy_net(0.2)
        net.server.tcp.listen(80)
        outcomes = []
        for i in range(20):
            conn = net.client.tcp.connect(
                net.server.address, 80,
                ClientConnConfig(syn_retries=6))
            conn.on_established = lambda c: outcomes.append("ok")
            conn.on_failed = lambda c, r: outcomes.append("fail")
        net.run(until=120.0)
        assert outcomes.count("ok") >= 16

    def test_lost_solution_ack_triggers_deception_path(self):
        """If the solved ACK is lost, the client believes it connected;
        its request then draws an RST (no server state exists)."""
        from repro.puzzles.params import PuzzleParams
        from repro.tcp.constants import DefenseMode
        from repro.tcp.listener import DefenseConfig

        net = MiniNet()
        listener = net.server.tcp.listen(80, DefenseConfig(
            mode=DefenseMode.PUZZLES, puzzle_params=PuzzleParams(k=1,
                                                                 m=4),
            always_challenge=True))
        events = []
        conn = net.client.tcp.connect(net.server.address, 80)
        conn.on_established = lambda c: (events.append("established"),
                                         c.send_data(50, ("gettext", 1)))
        conn.on_reset = lambda c: events.append("reset")
        # Lose exactly the solution-bearing ACK.
        uplink = net.topology.path_links("client0", "server")[0]
        original_offer = uplink.offer

        def lossy_offer(now, size):
            if events == [] and size < 100 and \
                    net.engine.now > 0.003:  # the ACK, not the SYN
                uplink.offer = original_offer  # lose only one packet
                uplink.packets_lost += 1
                return None
            return original_offer(now, size)

        uplink.offer = lossy_offer
        net.run(until=5.0)
        assert events == ["established", "reset"]
        assert listener.stats.established_total() == 0
