"""Byte-exact TCP option encoding for challenges and solutions.

Reproduces Figures 4 and 5 of the paper:

Challenge block (SYN-ACK, opcode ``0xfc``)::

    +--------+--------+--------+--------+
    |  0xfc  | Length |   k    |   m    |
    +--------+--------+--------+--------+
    |   l    |  [timestamp, 4 bytes]    |
    +--------+--------+--------+--------+
    |        pre-image (l bytes)  ...   |
    +-----------------------------------+
    |        NOP padding to 32 bits     |
    +-----------------------------------+

Solution block (ACK, opcode ``0xfd``)::

    +--------+--------+-----------------+
    |  0xfd  | Length |    MSS value    |
    +--------+--------+-----------------+
    | Wscale |  [timestamp, 4 bytes]    |
    +--------+--------+--------+--------+
    |     k solutions (k × l bytes) ... |
    +-----------------------------------+
    |        NOP padding to 32 bits     |
    +-----------------------------------+

The solution block re-sends MSS and window-scale because the stateless
server discarded the client's SYN options (§5). The 4-byte timestamp is
embedded when the TCP timestamps option is not in use (``embed_timestamp``);
with timestamps negotiated, the challenge timestamp rides in the standard
option instead and the blocks shrink by 4 bytes.

``Length`` counts the block including opcode and length bytes but excluding
NOP padding, per standard TCP option conventions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

from repro.errors import CodecError
from repro.puzzles.juels import Challenge, FlowBinding, Solution
from repro.puzzles.params import MAX_TCP_OPTION_BYTES, PuzzleParams

#: Unused TCP option opcodes adopted by the paper.
CHALLENGE_OPCODE = 0xFC
SOLUTION_OPCODE = 0xFD
NOP_OPCODE = 0x01


def _pad32(block: bytes) -> bytes:
    """Append NOPs so the block length is a multiple of 4 (32-bit aligned)."""
    remainder = len(block) % 4
    if remainder:
        block += bytes([NOP_OPCODE]) * (4 - remainder)
    return block


def _strip_nops(data: bytes) -> bytes:
    """Drop leading NOPs (tolerate padding from a preceding option)."""
    i = 0
    while i < len(data) and data[i] == NOP_OPCODE:
        i += 1
    return data[i:]


def encode_challenge(challenge: Challenge,
                     embed_timestamp: bool = True) -> bytes:
    """Serialise a challenge into its option block (Figure 4)."""
    params = challenge.params
    preimage = challenge.preimage
    if len(preimage) != params.length_bytes:
        raise CodecError(
            f"pre-image length {len(preimage)} != l={params.length_bytes}")
    body = bytes([params.k, params.m, params.length_bytes])
    if embed_timestamp:
        body += (challenge.issued_at_ms & 0xFFFFFFFF).to_bytes(4, "big")
    body += preimage
    length = 2 + len(body)
    if length > MAX_TCP_OPTION_BYTES:
        raise CodecError(
            f"challenge block of {length} bytes exceeds the "
            f"{MAX_TCP_OPTION_BYTES}-byte TCP option budget")
    return _pad32(bytes([CHALLENGE_OPCODE, length]) + body)


def decode_challenge(data: bytes, binding: FlowBinding,
                     timestamp_ms: Optional[int] = None) -> Challenge:
    """Parse a challenge option block.

    *binding* comes from the enclosing packet's header fields; when the
    block has no embedded timestamp, the caller supplies the value carried
    by the TCP timestamps option as *timestamp_ms*.
    """
    data = _strip_nops(data)
    if len(data) < 5:
        raise CodecError("challenge block truncated")
    if data[0] != CHALLENGE_OPCODE:
        raise CodecError(
            f"expected opcode {CHALLENGE_OPCODE:#x}, got {data[0]:#x}")
    length = data[1]
    if length < 5 or length > len(data):
        raise CodecError(f"bad challenge block length {length}")
    k, m, l = data[2], data[3], data[4]
    offset = 5
    embedded = length == 2 + 3 + 4 + l
    if embedded:
        timestamp_ms = int.from_bytes(data[offset:offset + 4], "big")
        offset += 4
    elif length != 2 + 3 + l:
        raise CodecError(
            f"challenge length {length} inconsistent with l={l}")
    if timestamp_ms is None:
        raise CodecError(
            "no embedded timestamp and none supplied from the TS option")
    preimage = data[offset:offset + l]
    if len(preimage) != l:
        raise CodecError("challenge pre-image truncated")
    try:
        params = PuzzleParams(k=k, m=m, length_bytes=l)
    except Exception as exc:
        raise CodecError(f"invalid puzzle parameters on the wire: {exc}")
    return Challenge(params=params, preimage=preimage,
                     issued_at_ms=timestamp_ms, binding=binding)


def encode_solution(solution: Solution,
                    embed_timestamp: bool = True) -> bytes:
    """Serialise a solution into its option block (Figure 5)."""
    params = solution.params
    if not (0 <= solution.mss <= 0xFFFF):
        raise CodecError(f"MSS {solution.mss} out of range")
    if not (0 <= solution.wscale <= 14):
        raise CodecError(f"window scale {solution.wscale} out of range")
    body = solution.mss.to_bytes(2, "big") + bytes([solution.wscale])
    if embed_timestamp:
        body += (solution.issued_at_ms & 0xFFFFFFFF).to_bytes(4, "big")
    for s in solution.solutions:
        body += s
    length = 2 + len(body)
    if length > MAX_TCP_OPTION_BYTES:
        raise CodecError(
            f"solution block of {length} bytes (k={params.k}, "
            f"l={params.length_bytes}) exceeds the "
            f"{MAX_TCP_OPTION_BYTES}-byte TCP option budget")
    return _pad32(bytes([SOLUTION_OPCODE, length]) + body)


def decode_solution(data: bytes, params: PuzzleParams,
                    timestamp_ms: Optional[int] = None) -> Solution:
    """Parse a solution option block against the server's current params.

    The wire format does not carry ``k``/``m``/``l`` (the server is
    stateless and verifies with its current sysctl configuration), so the
    expected :class:`PuzzleParams` must be supplied.
    """
    data = _strip_nops(data)
    if len(data) < 5:
        raise CodecError("solution block truncated")
    if data[0] != SOLUTION_OPCODE:
        raise CodecError(
            f"expected opcode {SOLUTION_OPCODE:#x}, got {data[0]:#x}")
    length = data[1]
    k, l = params.k, params.length_bytes
    with_ts = 2 + 3 + 4 + k * l
    without_ts = 2 + 3 + k * l
    if length == with_ts:
        embedded = True
    elif length == without_ts:
        embedded = False
    else:
        raise CodecError(
            f"solution length {length} does not match k={k}, l={l} "
            f"(expected {without_ts} or {with_ts})")
    if length > len(data):
        raise CodecError("solution block truncated")
    mss = int.from_bytes(data[2:4], "big")
    wscale = data[4]
    if wscale > 14:
        raise CodecError(f"window scale {wscale} out of range")
    offset = 5
    if embedded:
        timestamp_ms = int.from_bytes(data[offset:offset + 4], "big")
        offset += 4
    if timestamp_ms is None:
        raise CodecError(
            "no embedded timestamp and none supplied from the TS option")
    solutions = []
    for _ in range(k):
        solutions.append(data[offset:offset + l])
        offset += l
    return Solution(params=params, solutions=solutions,
                    issued_at_ms=timestamp_ms, mss=mss, wscale=wscale)


# Cached: PuzzleParams is frozen/hashable and every packet carrying an
# option block asks for these sizes; a sweep uses a handful of distinct
# (params, flag) pairs but millions of packets.
@lru_cache(maxsize=256)
def challenge_wire_size(params: PuzzleParams,
                        embed_timestamp: bool = True) -> Tuple[int, int]:
    """(unpadded, padded) byte size of a challenge block."""
    length = 2 + 3 + (4 if embed_timestamp else 0) + params.length_bytes
    padded = length + (-length) % 4
    return length, padded


@lru_cache(maxsize=256)
def solution_wire_size(params: PuzzleParams,
                       embed_timestamp: bool = True) -> Tuple[int, int]:
    """(unpadded, padded) byte size of a solution block."""
    length = params.solution_wire_bytes(embed_timestamp)
    padded = length + (-length) % 4
    return length, padded
