"""Byte-exact codec tests for the Figure 4/5 TCP option blocks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CodecError
from repro.puzzles.codec import (
    CHALLENGE_OPCODE,
    NOP_OPCODE,
    SOLUTION_OPCODE,
    challenge_wire_size,
    decode_challenge,
    decode_solution,
    encode_challenge,
    encode_solution,
    solution_wire_size,
)
from repro.puzzles.juels import (
    FlowBinding,
    JuelsBrainardScheme,
    ModeledSolver,
)
from repro.puzzles.params import PuzzleParams
from repro.puzzles.secrets import SecretKey

BINDING = FlowBinding(src_ip=0x0A000002, dst_ip=0x0A000001,
                      src_port=43210, dst_port=80, isn=7)


def make_challenge(params=PuzzleParams(k=2, m=8), now=3.0):
    scheme = JuelsBrainardScheme(secret=SecretKey(1), mode="modeled")
    return scheme.make_challenge(params, BINDING, now)


class TestChallengeBlock:
    def test_roundtrip_embedded_timestamp(self):
        challenge = make_challenge()
        blob = encode_challenge(challenge, embed_timestamp=True)
        decoded = decode_challenge(blob, BINDING)
        assert decoded.params == challenge.params
        assert decoded.preimage == challenge.preimage
        assert decoded.issued_at_ms == challenge.issued_at_ms

    def test_roundtrip_external_timestamp(self):
        challenge = make_challenge()
        blob = encode_challenge(challenge, embed_timestamp=False)
        decoded = decode_challenge(blob, BINDING,
                                   timestamp_ms=challenge.issued_at_ms)
        assert decoded.preimage == challenge.preimage
        assert decoded.issued_at_ms == challenge.issued_at_ms

    def test_layout_figure4(self):
        """First bytes are opcode, length, k, m, l — per Figure 4."""
        challenge = make_challenge(PuzzleParams(k=3, m=12))
        blob = encode_challenge(challenge)
        assert blob[0] == CHALLENGE_OPCODE
        assert blob[2] == 3          # k
        assert blob[3] == 12         # m
        assert blob[4] == 8          # l

    def test_32bit_alignment(self):
        for length in (4, 6, 8, 11):
            params = PuzzleParams(k=1, m=4, length_bytes=length)
            blob = encode_challenge(make_challenge(params))
            assert len(blob) % 4 == 0

    def test_length_field_excludes_padding(self):
        challenge = make_challenge()
        blob = encode_challenge(challenge)
        unpadded, padded = challenge_wire_size(challenge.params, True)
        assert blob[1] == unpadded
        assert len(blob) == padded

    def test_leading_nops_tolerated(self):
        challenge = make_challenge()
        blob = bytes([NOP_OPCODE, NOP_OPCODE]) + encode_challenge(challenge)
        assert decode_challenge(blob, BINDING).preimage == \
            challenge.preimage

    def test_truncated_rejected(self):
        blob = encode_challenge(make_challenge())
        with pytest.raises(CodecError):
            decode_challenge(blob[:3], BINDING)

    def test_wrong_opcode_rejected(self):
        blob = bytearray(encode_challenge(make_challenge()))
        blob[0] = 0x42
        with pytest.raises(CodecError):
            decode_challenge(bytes(blob), BINDING)

    def test_missing_timestamp_rejected(self):
        blob = encode_challenge(make_challenge(), embed_timestamp=False)
        with pytest.raises(CodecError):
            decode_challenge(blob, BINDING)  # no TS option value given

    def test_garbled_params_rejected(self):
        blob = bytearray(encode_challenge(make_challenge()))
        blob[3] = 255  # m=255 > 8*l
        with pytest.raises(CodecError):
            decode_challenge(bytes(blob), BINDING)


class TestSolutionBlock:
    def make_solution(self, params=PuzzleParams(k=2, m=8)):
        challenge = make_challenge(params)
        solution = ModeledSolver().solve(challenge, random.Random(5))
        solution.mss = 1400
        solution.wscale = 9
        return solution

    def test_roundtrip(self):
        solution = self.make_solution()
        blob = encode_solution(solution)
        decoded = decode_solution(blob, solution.params)
        assert decoded.solutions == solution.solutions
        assert decoded.mss == 1400
        assert decoded.wscale == 9
        assert decoded.issued_at_ms == solution.issued_at_ms

    def test_layout_figure5(self):
        solution = self.make_solution()
        blob = encode_solution(solution)
        assert blob[0] == SOLUTION_OPCODE
        assert int.from_bytes(blob[2:4], "big") == 1400  # MSS re-sent
        assert blob[4] == 9                              # wscale re-sent

    def test_mss_full_16_bits(self):
        """The point §5 makes against cookies: full MSS fidelity."""
        solution = self.make_solution()
        solution.mss = 65535
        decoded = decode_solution(encode_solution(solution),
                                  solution.params)
        assert decoded.mss == 65535

    def test_k4_fits_option_budget_with_external_timestamp(self):
        solution = self.make_solution(PuzzleParams(k=4, m=16))
        blob = encode_solution(solution, embed_timestamp=False)
        assert len(blob) <= 40

    def test_k4_embedded_timestamp_rejected(self):
        solution = self.make_solution(PuzzleParams(k=4, m=16))
        with pytest.raises(CodecError):
            encode_solution(solution, embed_timestamp=True)

    def test_alignment(self):
        blob = encode_solution(self.make_solution())
        assert len(blob) % 4 == 0

    def test_wrong_params_length_mismatch_rejected(self):
        solution = self.make_solution(PuzzleParams(k=2, m=8))
        blob = encode_solution(solution)
        with pytest.raises(CodecError):
            decode_solution(blob, PuzzleParams(k=3, m=8))

    def test_bad_wscale_rejected(self):
        solution = self.make_solution()
        solution.wscale = 15
        with pytest.raises(CodecError):
            encode_solution(solution)

    def test_decode_rejects_bad_wscale(self):
        params = PuzzleParams(k=2, m=8, length_bytes=4)
        blob = bytearray(encode_solution(self.make_solution(params)))
        blob[4] = 15
        with pytest.raises(CodecError):
            decode_solution(bytes(blob), params)

    def test_verifies_after_wire_roundtrip(self):
        """End-to-end: decode the wire bytes, verify against the scheme."""
        scheme = JuelsBrainardScheme(secret=SecretKey(1), mode="modeled")
        params = PuzzleParams(k=2, m=8)
        challenge = scheme.make_challenge(params, BINDING, 3.0)
        solution = ModeledSolver().solve(challenge, random.Random(5))
        decoded = decode_solution(encode_solution(solution), params)
        assert scheme.verify(decoded, BINDING, 3.5, params).ok


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=20),
       st.integers(min_value=4, max_value=8),
       st.booleans())
def test_roundtrip_property(k, m, length, embed):
    params = PuzzleParams(k=k, m=min(m, 8 * length), length_bytes=length)
    if not params.fits_in_options(embed):
        return
    challenge = make_challenge(params, now=12.345)
    blob = encode_challenge(challenge, embed_timestamp=embed)
    decoded = decode_challenge(
        blob, BINDING,
        timestamp_ms=None if embed else challenge.issued_at_ms)
    assert decoded.params == params
    assert decoded.preimage == challenge.preimage

    solution = ModeledSolver().solve(challenge, random.Random(k * m + 1))
    sblob = encode_solution(solution, embed_timestamp=embed)
    dsol = decode_solution(
        sblob, params,
        timestamp_ms=None if embed else solution.issued_at_ms)
    assert dsol.solutions == solution.solutions


#: Puzzle shapes the hostile-input fuzz encodes blocks for and decodes
#: solutions against (the wire carries no k or l for solutions).
FUZZ_PARAMS = (PuzzleParams(k=1, m=4, length_bytes=4),
               PuzzleParams(k=2, m=8, length_bytes=4),
               PuzzleParams(k=2, m=17, length_bytes=8))


@st.composite
def hostile_blocks(draw):
    """Random bytes (some behind a puzzle opcode), or a valid challenge or
    solution block, maybe truncated, with up to three bits flipped."""
    kind = draw(st.sampled_from(("random", "opcode", "challenge",
                                 "solution")))
    if kind == "random":
        return draw(st.binary(max_size=48))
    if kind == "opcode":
        opcode = draw(st.sampled_from((CHALLENGE_OPCODE, SOLUTION_OPCODE)))
        return bytes([opcode]) + draw(st.binary(max_size=47))
    params = draw(st.sampled_from(FUZZ_PARAMS))
    embed = draw(st.booleans())
    challenge = make_challenge(params)
    if kind == "challenge":
        blob = encode_challenge(challenge, embed_timestamp=embed)
    else:
        blob = encode_solution(
            ModeledSolver().solve(challenge, random.Random(params.m)),
            embed_timestamp=embed)
    if draw(st.booleans()):
        blob = blob[:draw(st.integers(0, len(blob) - 1))]
    blob = bytearray(blob)
    if blob:
        for bit in draw(st.lists(st.integers(0, 8 * len(blob) - 1),
                                 max_size=3)):
            blob[bit // 8] ^= 1 << (bit % 8)
    return bytes(blob)


@settings(deadline=None, max_examples=500)
@given(hostile_blocks(), st.sampled_from((None, 123456)))
def test_hostile_blocks_decode_or_raise_codec_error(blob, timestamp_ms):
    """Hostile option bytes never escape the codec as anything but a
    CodecError, and a block that decodes carries in-range fields."""
    try:
        challenge = decode_challenge(blob, BINDING, timestamp_ms)
    except CodecError:
        pass
    else:
        assert len(challenge.preimage) == challenge.params.length_bytes
    for params in FUZZ_PARAMS:
        try:
            solution = decode_solution(blob, params, timestamp_ms)
        except CodecError:
            continue
        assert 0 <= solution.mss <= 0xFFFF
        assert 0 <= solution.wscale <= 14
        assert len(solution.solutions) == params.k
        assert all(len(s) == params.length_bytes
                   for s in solution.solutions)
