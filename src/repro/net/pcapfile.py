"""Binary pcap export of simulated traffic.

The paper post-processes real tcpdump captures; this module closes the loop
in the other direction — simulated traffic can be written as a standard
little-endian pcap file (magic ``0xa1b2c3d4``, LINKTYPE_RAW/101) with real
IPv4+TCP headers, including the byte-exact 0xfc/0xfd puzzle option blocks
from :mod:`repro.puzzles.codec`. The files open in Wireshark/tcpdump, which
is both a demo nicety and a serious cross-check that our wire formats are
well-formed.

Only what the simulation models is emitted: header fields the simulator
does not track (IP id, checksums) are zeroed — Wireshark flags checksums as
unvalidated, which is conventional for synthetic captures.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Optional

from repro.errors import NetworkError
from repro.net.packet import Packet
from repro.puzzles.codec import encode_challenge, encode_solution

PCAP_MAGIC = 0xA1B2C3D4
PCAP_VERSION = (2, 4)
LINKTYPE_RAW = 101  # raw IPv4/IPv6


def _tcp_options_bytes(packet: Packet) -> bytes:
    """Serialise the structured options into real TCP option bytes."""
    options = packet.options
    out = b""
    if options.mss is not None:
        out += struct.pack("!BBH", 2, 4, options.mss & 0xFFFF)
    if options.wscale is not None:
        out += struct.pack("!BBB", 3, 3, options.wscale) + b"\x01"
    if options.ts_val is not None or options.ts_ecr is not None:
        out += b"\x01\x01" + struct.pack(
            "!BBII", 8, 10, options.ts_val or 0, options.ts_ecr or 0)
    has_ts = options.ts_val is not None
    if options.challenge is not None:
        out += encode_challenge(options.challenge,
                                embed_timestamp=not has_ts)
    if options.solution is not None:
        out += encode_solution(options.solution,
                               embed_timestamp=not has_ts)
    if len(out) % 4:
        out += b"\x01" * (4 - len(out) % 4)
    if len(out) > 40:
        raise NetworkError(
            f"serialised options are {len(out)} bytes > 40; this packet "
            f"cannot exist on the wire")
    return out


def packet_to_bytes(packet: Packet, payload_fill: bytes = b"x") -> bytes:
    """One on-wire frame: IPv4 header + TCP header/options + payload.

    Aggregated burst packets (``extra_frames > 0``) are rendered as a
    single frame carrying the full payload — pcap frames may exceed the
    MSS; consumers treat it like a GRO'd capture.
    """
    options = _tcp_options_bytes(packet)
    data_offset_words = 5 + len(options) // 4
    payload = (payload_fill * packet.payload_bytes)[:packet.payload_bytes]
    tcp = struct.pack(
        "!HHIIBBHHH",
        packet.src_port, packet.dst_port,
        packet.seq & 0xFFFFFFFF, packet.ack & 0xFFFFFFFF,
        data_offset_words << 4, int(packet.flags) & 0x3F,
        65535, 0, 0) + options + payload
    total_length = 20 + len(tcp)
    ip = struct.pack(
        "!BBHHHBBHII",
        (4 << 4) | 5, 0, total_length & 0xFFFF, 0, 0,
        64, 6, 0,
        packet.src_ip & 0xFFFFFFFF, packet.dst_ip & 0xFFFFFFFF)
    return ip + tcp


class PcapWriter:
    """Streams capture records into a pcap file.

    Use as a network tap::

        writer = PcapWriter(open("run.pcap", "wb"))
        network.add_tap(writer.tap)      # records "send" events
        ...
        writer.close()
    """

    def __init__(self, stream: BinaryIO, snaplen: int = 65535) -> None:
        self.stream = stream
        self.snaplen = snaplen
        self.frames_written = 0
        self._write_global_header()

    def _write_global_header(self) -> None:
        self.stream.write(struct.pack(
            "<IHHiIII", PCAP_MAGIC, *PCAP_VERSION, 0, 0, self.snaplen,
            LINKTYPE_RAW))

    def write(self, time: float, packet: Packet) -> None:
        frame = packet_to_bytes(packet)
        captured = frame[:self.snaplen]
        seconds = int(time)
        micros = int(round((time - seconds) * 1e6))
        self.stream.write(struct.pack("<IIII", seconds, micros,
                                      len(captured), len(frame)))
        self.stream.write(captured)
        self.frames_written += 1

    def tap(self, time: float, packet: Packet, event: str) -> None:
        """Network-tap entry point; records packets as they are sent."""
        if event == "send":
            self.write(time, packet)

    def close(self) -> None:
        self.stream.close()


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
from dataclasses import dataclass as _dataclass
from typing import Iterator, List, Tuple


@_dataclass(frozen=True)
class ParsedOption:
    """One TCP option block from a parsed frame."""

    kind: int
    data: bytes  # the whole block including kind/length


@_dataclass(frozen=True)
class ParsedFrame:
    """A dissected raw-IPv4 frame from a pcap file."""

    time: float
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    options: Tuple[ParsedOption, ...]
    payload_bytes: int

    def option(self, kind: int) -> "ParsedOption | None":
        for option in self.options:
            if option.kind == kind:
                return option
        return None


def parse_frame(time: float, frame: bytes) -> ParsedFrame:
    """Dissect one raw IPv4+TCP frame as written by :class:`PcapWriter`.

    Any malformed frame raises :class:`~repro.errors.NetworkError`: a
    header length below the minimum or past the frame's end is rejected
    before any field behind it is read.
    """
    if len(frame) < 40:
        raise NetworkError(f"frame too short: {len(frame)} bytes")
    ihl = (frame[0] & 0x0F) * 4
    if frame[0] >> 4 != 4 or frame[9] != 6:
        raise NetworkError("not an IPv4/TCP frame")
    if ihl < 20 or ihl + 20 > len(frame):
        raise NetworkError(f"bad IPv4 header length {ihl} in a "
                           f"{len(frame)}-byte frame")
    src_ip, dst_ip = struct.unpack("!II", frame[12:20])
    tcp = frame[ihl:]
    src_port, dst_port, seq, ack = struct.unpack("!HHII", tcp[:12])
    data_offset = (tcp[12] >> 4) * 4
    if data_offset < 20 or data_offset > len(tcp):
        raise NetworkError(f"bad TCP data offset {data_offset} in a "
                           f"{len(tcp)}-byte segment")
    flags = tcp[13]
    raw_options = tcp[20:data_offset]
    options: List[ParsedOption] = []
    i = 0
    while i < len(raw_options):
        kind = raw_options[i]
        if kind == 0x00:          # end of options
            break
        if kind == 0x01:          # NOP
            i += 1
            continue
        if i + 1 >= len(raw_options):
            raise NetworkError("truncated TCP option")
        length = raw_options[i + 1]
        if length < 2 or i + length > len(raw_options):
            raise NetworkError(f"bad TCP option length {length}")
        options.append(ParsedOption(kind=kind,
                                    data=raw_options[i:i + length]))
        i += length
    payload = len(tcp) - data_offset
    return ParsedFrame(time=time, src_ip=src_ip, dst_ip=dst_ip,
                       src_port=src_port, dst_port=dst_port, seq=seq,
                       ack=ack, flags=flags, options=tuple(options),
                       payload_bytes=payload)


def read_pcap(stream) -> Iterator[ParsedFrame]:
    """Iterate the frames of a pcap file written by :class:`PcapWriter`."""
    header = stream.read(24)
    if len(header) < 24:
        raise NetworkError("truncated pcap global header")
    magic, = struct.unpack("<I", header[:4])
    if magic != PCAP_MAGIC:
        raise NetworkError(f"unsupported pcap magic {magic:#x}")
    linktype, = struct.unpack("<I", header[20:24])
    if linktype != LINKTYPE_RAW:
        raise NetworkError(f"unsupported linktype {linktype}")
    while True:
        record = stream.read(16)
        if not record:
            return
        if len(record) < 16:
            raise NetworkError("truncated pcap record header")
        sec, usec, caplen, _ = struct.unpack("<IIII", record)
        frame = stream.read(caplen)
        if len(frame) < caplen:
            raise NetworkError("truncated pcap frame")
        yield parse_frame(sec + usec / 1e6, frame)
