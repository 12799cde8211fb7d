"""Packet model: IPv4 + TCP headers with structured options.

Packets carry *structured* option objects (challenge/solution instances)
rather than raw bytes — the byte-exact wire formats live in
:mod:`repro.puzzles.codec` and are exercised by tests, while the simulator
avoids serialise/parse work per packet. Byte accounting is still faithful:
:attr:`Packet.size_bytes` includes the padded on-wire size of every option
block, so link serialization and throughput numbers match what the real
encodings would produce.

Flood workloads construct millions of near-identical packets, so the
model is built for allocation thrift rather than dataclass convenience:

* :class:`Packet` and :class:`TCPOptions` are ``__slots__`` classes —
  no per-instance ``__dict__``, roughly half the memory and measurably
  faster attribute access;
* ``size_bytes`` is precomputed at construction (options never change
  once a packet is injected into the fabric) and option byte accounting
  is cached per :class:`TCPOptions` instance, so the fabric's repeated
  per-link/per-tap size queries are plain attribute reads;
* the flood-dominant bare-SYN option shape (MSS only, or nothing) is
  interned via :func:`mss_options` — one shared immutable instance per
  MSS value instead of one allocation per SYN;
* flags are stored as plain ints and the ``FLAG_*`` constants mirror
  :class:`TCPFlags` because IntFlag operators construct an enum object
  per call, which dominates profiles at flood rates.
"""

from __future__ import annotations

import enum
from itertools import count
from typing import Dict, Optional, TYPE_CHECKING

from repro.puzzles.codec import challenge_wire_size, solution_wire_size

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.puzzles.juels import Challenge, Solution

IP_HEADER_BYTES = 20
TCP_HEADER_BYTES = 20
#: Minimum on-wire frame: the paper's §7 uses "at least 60 bytes for IP and
#: TCP headers" when costing a solution flood.
MIN_FRAME_BYTES = 60


class TCPFlags(enum.IntFlag):
    """The TCP flags the handshake machinery needs."""

    NONE = 0
    FIN = 1
    SYN = 2
    RST = 4
    PSH = 8
    ACK = 16


# Plain-int mirrors for hot paths: IntFlag's operators construct enum
# instances per call, which dominates profiles at flood rates. The
# ``FLAG_*`` names (including the pre-combined handshake shapes) are the
# public spelling for packet construction sites; the underscored ones
# remain for the demux predicates below.
FLAG_FIN = 1
FLAG_SYN = 2
FLAG_RST = 4
FLAG_PSH = 8
FLAG_ACK = 16
FLAG_SYNACK = FLAG_SYN | FLAG_ACK
FLAG_PSHACK = FLAG_PSH | FLAG_ACK

_FIN = FLAG_FIN
_SYN = FLAG_SYN
_RST = FLAG_RST
_PSH = FLAG_PSH
_ACK = FLAG_ACK


class TCPOptions:
    """Structured TCP options.

    ``mss``/``wscale`` are carried on SYN and SYN-ACK; ``ts_val``/``ts_ecr``
    model the timestamps option; ``challenge``/``solution`` are the paper's
    0xfc/0xfd blocks. ``None`` means the option is absent.

    Instances are treated as immutable once attached to a packet (the
    interned bare-SYN shapes from :func:`mss_options` are shared), and
    :attr:`wire_bytes` is cached on first computation.
    """

    __slots__ = ("mss", "wscale", "ts_val", "ts_ecr", "challenge",
                 "solution", "_wire_cache")

    def __init__(self,
                 mss: Optional[int] = None,
                 wscale: Optional[int] = None,
                 ts_val: Optional[int] = None,
                 ts_ecr: Optional[int] = None,
                 challenge: Optional["Challenge"] = None,
                 solution: Optional["Solution"] = None) -> None:
        self.mss = mss
        self.wscale = wscale
        self.ts_val = ts_val
        self.ts_ecr = ts_ecr
        self.challenge = challenge
        self.solution = solution
        self._wire_cache: Optional[int] = None

    @property
    def wire_bytes(self) -> int:
        """Padded on-wire size of all present options (cached)."""
        size = self._wire_cache
        if size is None:
            size = 0
            if self.mss is not None:
                size += 4  # kind, len, 2 value bytes
            if self.wscale is not None:
                size += 4  # kind, len, value, NOP
            if self.ts_val is not None or self.ts_ecr is not None:
                size += 12  # kind, len, two 4-byte stamps, 2 NOPs
            has_timestamps = self.ts_val is not None
            if self.challenge is not None:
                # With timestamps negotiated the challenge timestamp rides
                # there and the block drops its embedded copy (§5).
                _, padded = challenge_wire_size(
                    self.challenge.params, embed_timestamp=not has_timestamps)
                size += padded
            if self.solution is not None:
                _, padded = solution_wire_size(
                    self.solution.params, embed_timestamp=not has_timestamps)
                size += padded
            self._wire_cache = size
        return size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TCPOptions):
            return NotImplemented
        return (self.mss == other.mss and self.wscale == other.wscale
                and self.ts_val == other.ts_val
                and self.ts_ecr == other.ts_ecr
                and self.challenge == other.challenge
                and self.solution == other.solution)

    __hash__ = None  # type: ignore[assignment] - mutable container semantics

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = [f"{name}={getattr(self, name)!r}"
                 for name in ("mss", "wscale", "ts_val", "ts_ecr",
                              "challenge", "solution")
                 if getattr(self, name) is not None]
        return f"TCPOptions({', '.join(parts)})"


#: The shared no-options instance every option-less packet carries.
_EMPTY_OPTIONS = TCPOptions()

#: Interned MSS-only shapes (the bare SYN / cookie SYN-ACK fast path).
_MSS_OPTIONS: Dict[int, TCPOptions] = {}


def mss_options(mss: int) -> TCPOptions:
    """The interned MSS-only :class:`TCPOptions` for *mss*.

    SYN floods emit millions of packets whose options are exactly
    ``TCPOptions(mss=...)``; this returns one shared immutable instance
    per MSS value (with its byte accounting pre-warmed) instead of
    allocating per packet. Callers must not mutate the result.
    """
    options = _MSS_OPTIONS.get(mss)
    if options is None:
        options = TCPOptions(mss=mss)
        options.wire_bytes  # warm the cache on the shared instance
        _MSS_OPTIONS[mss] = options
    return options


def flip_bit(data: bytes, bit: int) -> bytes:
    """*data* with one bit inverted — the fault-injection corruption
    primitive. The bit index wraps, so any non-negative *bit* is valid;
    the length is preserved so size accounting and codec framing hold."""
    if not data:
        return data
    index, shift = divmod(bit % (len(data) * 8), 8)
    corrupted = bytearray(data)
    corrupted[index] ^= 1 << shift
    return bytes(corrupted)


_uid_counter = count(1)


class Packet:
    """One simulated IP/TCP packet (or an aggregated data burst).

    ``payload_bytes`` is the application payload carried; for data transfer
    the hosts aggregate a whole response into one packet whose
    ``extra_frames`` records how many MSS-sized segments it stands for, so
    per-frame header overhead still lands in :attr:`size_bytes`.

    ``size_bytes`` is computed at construction: options do not change once
    the packet is injected into the fabric, and the fabric asks repeatedly
    (per link, per tap), so it is a plain attribute rather than a property.
    """

    __slots__ = ("src_ip", "dst_ip", "src_port", "dst_port", "seq", "ack",
                 "flags", "options", "payload_bytes", "extra_frames",
                 "app_data", "uid", "size_bytes")

    def __init__(self,
                 src_ip: int,
                 dst_ip: int,
                 src_port: int,
                 dst_port: int,
                 seq: int = 0,
                 ack: int = 0,
                 flags: int = 0,
                 options: Optional[TCPOptions] = None,
                 payload_bytes: int = 0,
                 extra_frames: int = 0,
                 app_data: object = None) -> None:
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        # Store flags as a plain int: every demux consults them and
        # IntFlag arithmetic allocates an enum object per operation.
        self.flags = flags if type(flags) is int else int(flags)
        if options is None:
            options = _EMPTY_OPTIONS
        self.options = options
        self.payload_bytes = payload_bytes
        self.extra_frames = extra_frames
        self.app_data = app_data
        self.uid = next(_uid_counter)
        # Read the option-size cache directly: the interned/shared shapes
        # are pre-warmed, so the common case skips the property frame.
        wire = options._wire_cache
        if wire is None:
            wire = options.wire_bytes
        headers = IP_HEADER_BYTES + TCP_HEADER_BYTES + wire
        total = headers * (1 + extra_frames) + payload_bytes
        self.size_bytes = total if total > MIN_FRAME_BYTES else MIN_FRAME_BYTES

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & _SYN) and not (self.flags & _ACK)

    @property
    def is_synack(self) -> bool:
        return bool(self.flags & _SYN) and bool(self.flags & _ACK)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & _RST)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & _ACK)

    @property
    def flow(self) -> tuple:
        """(src_ip, src_port, dst_ip, dst_port) — the demux key."""
        return (self.src_ip, self.src_port, self.dst_ip, self.dst_port)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        from repro.net.addresses import format_ip

        names = []
        for flag in (TCPFlags.SYN, TCPFlags.ACK, TCPFlags.RST, TCPFlags.FIN,
                     TCPFlags.PSH):
            if self.flags & flag:
                names.append(flag.name)
        extras = []
        if self.options.challenge is not None:
            extras.append("chal")
        if self.options.solution is not None:
            extras.append("sol")
        return (f"<Packet {format_ip(self.src_ip)}:{self.src_port} -> "
                f"{format_ip(self.dst_ip)}:{self.dst_port} "
                f"[{'|'.join(names) or 'none'}"
                f"{' ' + '+'.join(extras) if extras else ''}] "
                f"{self.payload_bytes}B>")
