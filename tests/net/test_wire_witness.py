"""Wire-level witness for the handshake counters.

The paper reads its per-path analysis off kernel counters and checks it
against tcpdump captures. This test does the same for the simulator: it
captures the server's traffic in the fig7 ``challenges-m8`` (spoofed
SYNs) and fig8 ``cookies`` (handshake-completing bots) cells, serializes
every packet to its on-wire IPv4/TCP bytes, and re-derives from the bytes
alone — with a ``struct`` parser that knows nothing of the TCP model —
the segments, SYNs and SYN-ACKs the host MIB says it counted.

A capture tap forces the per-packet path; the byte-identity matrix ties
that path to the compiled flood paths.
"""

import struct
from collections import Counter

import pytest

from repro.experiments.exp2_floods import (CHALLENGES_M8, COOKIES,
                                           FloodExperiment)
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.net.pcapfile import packet_to_bytes

SYN, ACK = 0x02, 0x10
CHALLENGE_KIND = 0xFC

_ADDRESSES = struct.Struct("!II")


def classify(frame: bytes):
    """``(src_ip, dst_ip, flags, has_challenge)`` of one IPv4/TCP frame."""
    ihl = (frame[0] & 0x0F) * 4
    src_ip, dst_ip = _ADDRESSES.unpack_from(frame, 12)
    data_offset = (frame[ihl + 12] >> 4) * 4
    flags = frame[ihl + 13]
    options = frame[ihl + 20:ihl + data_offset]
    has_challenge = False
    i = 0
    while i < len(options):
        kind = options[i]
        if kind == 0:        # end of option list
            break
        if kind == 1:        # NOP
            i += 1
            continue
        has_challenge = has_challenge or kind == CHALLENGE_KIND
        i += options[i + 1]
    return src_ip, dst_ip, flags, has_challenge


class CapturedScenario(Scenario):
    """A scenario whose network carries a capture tap that tallies the
    server's frames as the wire shows them."""

    def build(self):
        result = super().build()
        server = result.hosts["server"].address
        self.wire = wire = Counter()

        def tap(now, packet, event):
            if event not in ("send", "deliver"):
                return
            src_ip, dst_ip, flags, has_challenge = classify(
                packet_to_bytes(packet))
            handshake = flags & (SYN | ACK)
            if event == "deliver" and dst_ip == server:
                wire["segments_in"] += 1
                wire["syns_in"] += handshake == SYN
            elif event == "send" and src_ip == server \
                    and handshake == SYN | ACK:
                wire["synacks_out"] += 1
                wire["challenges_out"] += has_challenge

        result.hosts["server"].network.add_tap(tap)
        return result


def _witness(label, attack_style):
    base = ScenarioConfig(seed=1, time_scale=0.01)
    scenario = CapturedScenario(FloodExperiment(
        defense=label, attack_style=attack_style, base=base).config())
    result = scenario.run()
    return scenario.wire, result.obs.counters.scope("server")


def _assert_books_match_wire(wire, mib):
    assert wire["segments_in"] == mib["InSegs"]
    assert wire["syns_in"] == mib["SynsRecv"]
    assert wire["synacks_out"] == (mib["SynAcksSent"] + mib["PuzzlesIssued"]
                                   + mib["SynCookiesSent"])
    assert wire["challenges_out"] == mib["PuzzlesIssued"]


def test_classifier_reads_a_challenge_synack():
    from repro.net.packet import FLAG_SYNACK, Packet, TCPOptions
    from repro.puzzles.juels import FlowBinding, JuelsBrainardScheme
    from repro.puzzles.params import PuzzleParams

    binding = FlowBinding(src_ip=1, dst_ip=2, src_port=80, dst_port=999,
                          isn=7)
    challenge = JuelsBrainardScheme(mode="modeled").make_challenge(
        PuzzleParams(k=1, m=8), binding, 1.0)
    packet = Packet(src_ip=2, dst_ip=1, src_port=80, dst_port=999, seq=5,
                    ack=8, flags=FLAG_SYNACK,
                    options=TCPOptions(mss=1460, challenge=challenge))
    assert classify(packet_to_bytes(packet)) == (2, 1, SYN | ACK, True)
    plain = Packet(src_ip=2, dst_ip=1, src_port=80, dst_port=999, seq=5,
                   ack=8, flags=FLAG_SYNACK, options=TCPOptions(mss=1460))
    assert classify(packet_to_bytes(plain)) == (2, 1, SYN | ACK, False)


@pytest.mark.slow
def test_syn_flood_counters_match_the_wire():
    """fig7 ``challenges-m8``: a puzzle-defended spoofed-SYN flood."""
    wire, mib = _witness(CHALLENGES_M8, "syn")
    assert wire["challenges_out"] > 10_000  # the flood was challenged
    _assert_books_match_wire(wire, mib)


@pytest.mark.slow
def test_connection_flood_counters_match_the_wire():
    """fig8 ``cookies``: a cookie-defended handshake-completing flood."""
    wire, mib = _witness(COOKIES, "connect")
    assert mib["SynCookiesSent"] > 1_000  # cookies were served
    _assert_books_match_wire(wire, mib)
