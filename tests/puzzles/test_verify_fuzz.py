"""Hostile input to stateless solution verification.

The puzzle properties of Ali et al.'s survey (PAPERS.md), as Hypothesis
properties in both crypto modes: a mangled solution block is rejected
(and, at the listener, counted), never raised on; verification costs
O(1) hashes whatever the difficulty; a solution verifies only for its
own flow, and only under the secret it was issued with or the one grace
key a rotation keeps.
"""

import dataclasses
import random
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.crypto.hashcash import verify_partial_preimage
from repro.errors import CodecError
from repro.net.packet import Packet, TCPFlags, TCPOptions
from repro.puzzles.codec import decode_solution, encode_solution
from repro.puzzles.juels import FlowBinding, JuelsBrainardScheme, VerifyStatus
from repro.puzzles.params import PuzzleParams
from repro.puzzles.secrets import SecretKey
from repro.tcp.constants import DefenseMode
from repro.tcp.listener import DefenseConfig
from tests.conftest import MiniNet

BINDING = FlowBinding(src_ip=0x0A000002, dst_ip=0x0A000001,
                      src_port=43210, dst_port=80, isn=0xDEADBEEF)
CHALLENGE_AT = 3.0   # when the challenge is made, seconds
VERIFY_AT = 3.5   # inside the default 8 s expiry window
MODES = ("modeled", "real")


def _scheme(mode: str) -> JuelsBrainardScheme:
    return JuelsBrainardScheme(secret=SecretKey(1), mode=mode)


@lru_cache(maxsize=None)
def _honest(mode: str, params: PuzzleParams, binding: FlowBinding):
    """An honest solution for *binding*, challenged at CHALLENGE_AT (cached:
    real mode brute-forces it; callers must not mutate it)."""
    scheme = _scheme(mode)
    challenge = scheme.make_challenge(params, binding, CHALLENGE_AT)
    return scheme.solver().solve(challenge, random.Random(params.m))


@st.composite
def puzzles(draw):
    """(mode, params); every shape fits the option budget with an
    embedded timestamp (at most 2 + 3 + 4 + 3·8 = 33 bytes)."""
    mode = draw(st.sampled_from(MODES))
    length = draw(st.sampled_from((4, 8)))
    # Real mode solves by brute force, so its difficulty stays small.
    m = draw(st.integers(0, 10 if mode == "real" else 8 * length))
    return mode, PuzzleParams(k=draw(st.integers(1, 3)), m=m,
                              length_bytes=length)


@st.composite
def mangled(draw, block: bytes):
    """*block* with up to three bits flipped, truncated, its body forged
    behind an intact header, or replaced by random bytes."""
    how = draw(st.sampled_from(("flip", "truncate", "forge", "random")))
    if how == "random":
        return draw(st.binary(max_size=48))
    if how == "truncate":
        return block[:draw(st.integers(0, len(block) - 1))]
    if how == "forge":
        body = len(block) - 2
        return block[:2] + draw(st.binary(min_size=body, max_size=body))
    blob = bytearray(block)
    for bit in draw(st.lists(st.integers(0, 8 * len(blob) - 1),
                             min_size=1, max_size=3)):
        blob[bit // 8] ^= 1 << (bit % 8)
    return bytes(blob)


@settings(deadline=None, max_examples=1000, derandomize=True)
@given(st.data())
def test_mangled_solution_is_rejected_or_genuine(data):
    """A mangled block fails to decode (CodecError), or verifies to a
    VerifyStatus for at most 2·(1 + k) hashes; it verifies OK only when
    its sub-solutions (and, modeled, its timestamp) are genuine. The MSS
    and window-scale bytes are the client's own and unauthenticated."""
    mode, params = data.draw(puzzles())
    embed = data.draw(st.booleans())
    honest = _honest(mode, params, BINDING)
    blob = data.draw(mangled(encode_solution(honest, embed_timestamp=embed)))
    try:
        solution = decode_solution(
            blob, params, None if embed else honest.issued_at_ms)
    except CodecError:
        return
    scheme = _scheme(mode)
    if data.draw(st.booleans()):
        scheme.secret.rotate()   # two keys to try: the bound still holds
    result = scheme.verify(solution, BINDING, VERIFY_AT, params,
                           rng=random.Random(0))
    assert isinstance(result.status, VerifyStatus)
    assert result.hashes_spent <= 2 * (1 + params.k)
    if not result.ok:
        return
    if mode == "modeled":
        assert solution.solutions == honest.solutions
        assert solution.issued_at_ms == honest.issued_at_ms
    else:
        # Real mode: a flipped nonce that still meets the difficulty is
        # a genuine solution (likely at small m).
        assert any(
            all(verify_partial_preimage(
                scheme.preimage(BINDING, solution.issued_at_ms,
                                params.length_bytes, key=key),
                index, params.m, sub)
                for index, sub in enumerate(solution.solutions))
            for key in scheme.secret.valid_keys())


#: Difficulties at which a solution for another flow or key passes only
#: by a 2^-34 (modeled) or 2^-20 (real) coincidence.
BOUND_PARAMS = {"modeled": PuzzleParams(k=2, m=17),
                "real": PuzzleParams(k=2, m=10)}


@st.composite
def flows(draw):
    address = st.integers(0, 0xFFFFFFFF)
    port = st.integers(0, 0xFFFF)
    return FlowBinding(src_ip=draw(address), dst_ip=draw(address),
                       src_port=draw(port), dst_port=draw(port),
                       isn=draw(address))


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.sampled_from(MODES), flows(),
       st.sampled_from(("src_ip", "dst_ip", "src_port", "dst_port",
                        "isn")),
       st.integers(1, 0xFFFF))
def test_solution_is_bound_to_its_flow_and_secret(mode, binding, field,
                                                  delta):
    """A valid solution fails for a flow that differs in one field (ISN
    included), survives one secret rotation (the grace key) and fails
    after two."""
    params = BOUND_PARAMS[mode]
    scheme = _scheme(mode)
    challenge = scheme.make_challenge(params, binding, CHALLENGE_AT)
    solution = scheme.solver().solve(challenge, random.Random(0))
    width = 16 if field.endswith("port") else 32
    other = dataclasses.replace(binding, **{
        field: (getattr(binding, field) + delta) % (1 << width)})
    assert scheme.verify(solution, binding, VERIFY_AT, params).ok
    assert scheme.verify(solution, other, VERIFY_AT,
                         params).status is VerifyStatus.BAD_SOLUTION
    scheme.secret.rotate()
    assert scheme.verify(solution, binding, VERIFY_AT, params).ok
    scheme.secret.rotate()
    assert scheme.verify(solution, binding, VERIFY_AT,
                         params).status is VerifyStatus.BAD_SOLUTION


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.data())
def test_listener_counts_every_rejected_solution(data):
    """At a challenging listener, every solution ACK that does not
    establish is counted once, as PuzzlesRejected or ReplaysBlocked."""
    mode, params = data.draw(puzzles())
    net = MiniNet()
    scheme = _scheme(mode)
    net.server.tcp.listen(80, DefenseConfig(
        mode=DefenseMode.PUZZLES, puzzle_params=params, scheme=scheme,
        always_challenge=True))
    binding = FlowBinding(src_ip=net.client.address,
                          dst_ip=net.server.address, src_port=5555,
                          dst_port=80, isn=99)
    honest = _honest(mode, params, binding)
    blob = data.draw(mangled(encode_solution(honest)))
    try:
        solution = decode_solution(blob, params)
    except CodecError:
        return  # the wire decoder drops it before the listener sees it
    net.engine.schedule(VERIFY_AT, lambda: None)
    net.run(until=VERIFY_AT)
    mib = net.server.mib
    before = mib.snapshot()
    net.server.tcp.receive(Packet(
        src_ip=binding.src_ip, dst_ip=binding.dst_ip,
        src_port=binding.src_port, dst_port=80, seq=binding.isn + 1,
        ack=1, flags=TCPFlags.ACK, options=TCPOptions(solution=solution)))
    moved = {name: mib[name] - before.get(name, 0)
             for name in ("EstabPuzzle", "PuzzlesRejected",
                          "ReplaysBlocked")}
    assert sum(moved.values()) == 1, moved
    verdict = scheme.verify(solution, binding, VERIFY_AT, params)
    assert moved["EstabPuzzle"] == int(verdict.ok)
