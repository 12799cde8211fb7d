"""The Juels–Brainard puzzle scheme applied to TCP (paper §4, Figure 2).

Challenge construction
----------------------
The server computes ``y = h(secret, T, packet-level data)`` where the
packet-level data is the concatenation of the TCP initial sequence number
and the flow 4-tuple, and challenges the client with the first ``l`` bytes
of ``y``. The client brute-forces ``k`` strings ``s_i`` such that the first
``m`` bits of ``h(P || i || s_i)`` match the first ``m`` bits of ``P``.

Statelessness
-------------
The server keeps **no state** per challenge: on receiving a solution it
*recomputes* the pre-image from its secret, the echoed timestamp and the
packet's own header fields. A replayed or tampered solution therefore fails
because the recomputed pre-image no longer matches what the client solved.

Two solving modes
-----------------
* :class:`RealSolver` does the actual SHA-256 brute force — exact, used in
  unit tests, benchmarks, and small-``m`` simulations.
* :class:`ModeledSolver` samples the brute-force attempt count from the
  exact distribution (sum of ``k`` geometric(2^-m) variables) and emits
  deterministic placeholder solution strings derived from the pre-image.
  Placeholders preserve the binding property — verification recomputes the
  pre-image and the expected placeholders, so stale timestamps, wrong flows
  and fabricated solutions all still fail — while avoiding ``k·2^(m-1)``
  real hashes per simulated connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

import random
import struct

from hashlib import sha256 as _hashlib_sha256

from repro.crypto.hashcash import find_partial_preimage, verify_partial_preimage
from repro.crypto.sha256 import HashCounter, sha256
from repro.errors import PuzzleError
from repro.puzzles.params import PuzzleParams
from repro.puzzles.replay import ExpiryPolicy, Freshness
from repro.puzzles.secrets import SecretKey

#: The pre-image layout, shared by issue and verification: after the
#: secret key, the issue timestamp in ms (8 bytes), then isn(4) |
#: src_ip(4) | dst_ip(4) | src_port(2) | dst_port(2), all big-endian.
_pack_issue = struct.Struct(">QIIIHH").pack


def issue_timestamp_ms(now: float) -> int:
    """The timestamp a challenge issued at *now* carries: whole
    milliseconds, masked to the 4-byte wire field (Figure 4)."""
    return int(round(now * 1000.0)) & 0xFFFFFFFF


@dataclass(frozen=True)
class FlowBinding:
    """The packet-level data a challenge is bound to.

    All fields are plain integers so the binding is independent of the
    network layer's packet classes (the TCP stack constructs one from a
    received SYN/ACK packet).
    """

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    isn: int


@dataclass(frozen=True)
class Challenge:
    """A puzzle challenge as carried in a SYN-ACK option block."""

    params: PuzzleParams
    preimage: bytes
    issued_at_ms: int
    binding: FlowBinding

    @property
    def issued_at(self) -> float:
        """Issue time in seconds."""
        return self.issued_at_ms / 1000.0


@dataclass
class Solution:
    """A solved challenge as carried in an ACK option block.

    ``attempts`` records how many hash operations the solver spent — real
    SHA-256 calls for :class:`RealSolver`, a sampled count for
    :class:`ModeledSolver`. It is what the host models turn into CPU time.
    """

    params: PuzzleParams
    solutions: List[bytes]
    issued_at_ms: int
    attempts: int = 0
    mss: int = 1460
    wscale: int = 7

    def __post_init__(self) -> None:
        if len(self.solutions) != self.params.k:
            raise PuzzleError(
                f"expected {self.params.k} solution strings, "
                f"got {len(self.solutions)}")
        for s in self.solutions:
            if len(s) != self.params.length_bytes:
                raise PuzzleError(
                    f"solution string length {len(s)} != l="
                    f"{self.params.length_bytes}")


class VerifyStatus(Enum):
    """Outcome of stateless verification."""

    OK = "ok"
    EXPIRED = "expired"
    FUTURE_TIMESTAMP = "future-timestamp"
    PARAMS_MISMATCH = "params-mismatch"
    BAD_SOLUTION = "bad-solution"


@dataclass(frozen=True)
class VerifyResult:
    status: VerifyStatus
    hashes_spent: int = 0

    @property
    def ok(self) -> bool:
        return self.status is VerifyStatus.OK


def _modeled_placeholder(preimage: bytes, index: int, length: int) -> bytes:
    """Deterministic stand-in solution string for the modelled mode.

    Derived from the pre-image so that verification-side recomputation
    preserves the binding semantics of the real scheme (see module doc).
    """
    return sha256(preimage + index.to_bytes(2, "big") + b"/modeled")[:length]


class RealSolver:
    """Actual SHA-256 brute force. Exact but exponential in ``m``."""

    name = "real"

    def solve(self, challenge: Challenge, rng: random.Random,
              counter: Optional[HashCounter] = None) -> Solution:
        params = challenge.params
        solutions: List[bytes] = []
        total_attempts = 0
        for i in range(params.k):
            # Sequential scan from zero: the cheapest honest strategy. The
            # matching digest prefix is uniform, so the attempt count is
            # ~Uniform{1..2^m} with mean 2^(m-1) — exactly the paper's ℓ.
            solution, attempts = find_partial_preimage(
                challenge.preimage, i, params.m, params.length_bytes,
                counter=counter, start=0)
            solutions.append(solution)
            total_attempts += attempts
        return Solution(params=params, solutions=solutions,
                        issued_at_ms=challenge.issued_at_ms,
                        attempts=total_attempts)


class ModeledSolver:
    """Samples the brute-force attempt count instead of hashing.

    The number of candidates tried until an ``m``-bit match is geometric
    with success probability ``2^-m``; a ``(k, m)`` puzzle costs the sum of
    ``k`` such draws. Expectation ``k·2^(m-1)``... strictly ``k·2^m`` for a
    geometric starting at 1 — the paper uses the *average-case exhaustive
    scan* cost ``2^(m-1)`` per solution, so we sample uniformly over the
    scan order: attempts ~ Uniform{1..2^m}, mean ``(2^m+1)/2 ≈ 2^(m-1)``.
    """

    name = "modeled"

    def sample_attempts(self, params: PuzzleParams,
                        rng: random.Random) -> int:
        total = 0
        space = 1 << params.m
        for _ in range(params.k):
            total += rng.randint(1, space)
        return total

    def solve(self, challenge: Challenge, rng: random.Random,
              counter: Optional[HashCounter] = None) -> Solution:
        params = challenge.params
        attempts = self.sample_attempts(params, rng)
        if counter is not None:
            counter.add(attempts)
        solutions = [
            _modeled_placeholder(challenge.preimage, i, params.length_bytes)
            for i in range(params.k)
        ]
        return Solution(params=params, solutions=solutions,
                        issued_at_ms=challenge.issued_at_ms,
                        attempts=attempts)


class JuelsBrainardScheme:
    """Server-side challenge generation and stateless verification.

    Parameters
    ----------
    secret:
        The server's secret key (rotatable).
    expiry:
        Freshness policy for the embedded timestamp (replay defence).
    mode:
        ``"real"`` — solutions are genuine partial pre-images, verified by
        hashing; ``"modeled"`` — solutions are pre-image-derived
        placeholders, verified by recomputation (same binding semantics,
        constant cost). Both sides of a simulation must agree on the mode.
    """

    def __init__(self, secret: Optional[SecretKey] = None,
                 expiry: Optional[ExpiryPolicy] = None,
                 mode: str = "modeled") -> None:
        if mode not in ("real", "modeled"):
            raise PuzzleError(f"unknown scheme mode {mode!r}")
        self.secret = secret if secret is not None else SecretKey()
        self.expiry = expiry if expiry is not None else ExpiryPolicy()
        self.mode = mode

    def solver(self):
        """The solver matching this scheme's mode."""
        return RealSolver() if self.mode == "real" else ModeledSolver()

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def preimage(self, binding: FlowBinding, issued_at_ms: int,
                 length_bytes: int, key: Optional[bytes] = None,
                 counter: Optional[HashCounter] = None) -> bytes:
        """First ``l`` bytes of ``h(secret, T, packet-level data)``, as
        verification recomputes it from the echoed timestamp and the
        packet's own fields under *key* (default: the current secret).

        The material is packed in the one layout :meth:`issue_preimage`
        hashes, so a challenge issued at ``T`` and re-derived here for
        the same flow and key yields the same bytes."""
        if key is None:
            key = self.secret.current
        material = key + _pack_issue(
            issued_at_ms, binding.isn, binding.src_ip, binding.dst_ip,
            binding.src_port, binding.dst_port)
        return sha256(material, counter)[:length_bytes]

    def make_challenge(self, params: PuzzleParams, binding: FlowBinding,
                       now: float,
                       counter: Optional[HashCounter] = None) -> Challenge:
        """Generate a challenge at time *now* (one hash operation): the
        :meth:`issue_preimage` hash wrapped with its parameters,
        timestamp and binding."""
        preimage = self.issue_preimage(
            params, binding.src_ip, binding.dst_ip, binding.src_port,
            binding.dst_port, binding.isn, now, counter=counter)
        return Challenge(params=params, preimage=preimage,
                         issued_at_ms=issue_timestamp_ms(now),
                         binding=binding)

    def issue_preimage(self, params: PuzzleParams, src_ip: int,
                       dst_ip: int, src_port: int, dst_port: int,
                       isn: int, now: float,
                       counter: Optional[HashCounter] = None) -> bytes:
        """The challenge-issue hash: the pre-image of a challenge issued
        at *now* for the flow's fields, under the current secret.

        Every challenge is issued through here, :meth:`make_challenge`
        included. It takes plain integers, so a SYN-ACK whose challenge
        block is never read (replies to spoofed sources that the fabric
        blackholes) costs no FlowBinding or Challenge allocation. It
        charges *counter* one hash, as
        :func:`~repro.crypto.sha256.sha256` would, and returns the bytes
        :meth:`preimage` recomputes at verification."""
        # issue_timestamp_ms(now), inlined: this runs for every challenge
        # a flood draws, and a frame here is measurable.
        material = self.secret.current + _pack_issue(
            int(round(now * 1000.0)) & 0xFFFFFFFF, isn, src_ip, dst_ip,
            src_port, dst_port)
        if counter is not None:
            counter.count += 1
        return _hashlib_sha256(material).digest()[:params.length_bytes]

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(self, solution: Solution, binding: FlowBinding, now: float,
               params: PuzzleParams, rng: Optional[random.Random] = None,
               counter: Optional[HashCounter] = None) -> VerifyResult:
        """Stateless verification of a solution option.

        Recomputes the pre-image from the packet's own fields and the echoed
        timestamp (one hash per candidate secret key), enforces the expiry
        window, then checks the ``k`` sub-puzzle solutions in random order
        with early exit on the first violation.
        """
        spent = HashCounter()
        result = self._verify_inner(solution, binding, now, params, rng,
                                    spent)
        if counter is not None:
            counter.add(spent.count)
        return VerifyResult(status=result, hashes_spent=spent.count)

    def _verify_inner(self, solution: Solution, binding: FlowBinding,
                      now: float, params: PuzzleParams,
                      rng: Optional[random.Random],
                      spent: HashCounter) -> VerifyStatus:
        if solution.params.k != params.k or solution.params.m != params.m \
                or solution.params.length_bytes != params.length_bytes:
            return VerifyStatus.PARAMS_MISMATCH

        issued_at = solution.issued_at_ms / 1000.0
        freshness = self.expiry.classify(issued_at, now)
        if freshness is Freshness.FUTURE:
            return VerifyStatus.FUTURE_TIMESTAMP
        if freshness is Freshness.EXPIRED:
            return VerifyStatus.EXPIRED

        order = list(range(params.k))
        if rng is not None:
            rng.shuffle(order)

        # Try current key first, then the rotation-grace key.
        for key in self.secret.valid_keys():
            preimage = self.preimage(binding, solution.issued_at_ms,
                                     params.length_bytes, key=key,
                                     counter=spent)
            if self._check_solutions(preimage, solution, params, order,
                                     spent):
                return VerifyStatus.OK
        return VerifyStatus.BAD_SOLUTION

    def _check_solutions(self, preimage: bytes, solution: Solution,
                         params: PuzzleParams, order: Sequence[int],
                         spent: HashCounter) -> bool:
        for i in order:
            s = solution.solutions[i]
            if self.mode == "real":
                if not verify_partial_preimage(preimage, i, params.m, s,
                                               counter=spent):
                    return False
            else:
                spent.add(1)  # recomputing the placeholder is one hash op
                if s != _modeled_placeholder(preimage, i,
                                             params.length_bytes):
                    return False
        return True
