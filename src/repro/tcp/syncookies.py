"""Classic SYN cookies (Bernstein 1997), as the paper's main baseline.

The server encodes the connection's parameters into the 32-bit initial
sequence number of its SYN-ACK and keeps **no** half-open state; a later
ACK is validated by recomputing the cookie. The layout follows the classic
scheme:

* top 5 bits — a slow time counter ``t`` (64-second granularity) modulo 32,
* next 3 bits — an index into an 8-entry MSS table (this is the paper's
  point that cookies squeeze the 16-bit MSS into 3 bits),
* low 24 bits — a keyed hash of (4-tuple, client ISN, t, MSS index), so
  neither the counter nor the MSS bits can be altered without the secret.

Window scaling cannot be encoded at all, which the paper calls out as a
performance cost of cookies; :meth:`SynCookieCodec.decode` therefore
reports ``wscale=None``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import NetworkError

#: The classic 8-entry MSS approximation table.
MSS_TABLE = (536, 1300, 1440, 1460, 4312, 8960, 536, 536)

_sha256 = hashlib.sha256
#: Hash input after the secret, big-endian: 4-byte src_ip, 2-byte ports,
#: 4-byte ISN, 8-byte unsigned t, 1-byte MSS index.
_pack_material = struct.Struct(">IHHIQB").pack

#: ``_mss_index`` results per client MSS — floods echo one MSS value
#: millions of times, so the table scan runs once per distinct value.
_MSS_INDEX_CACHE: Dict[int, int] = {}

#: Seconds per cookie time-counter tick.
COOKIE_TICK_SECONDS = 64.0

#: How many past ticks a cookie stays valid (classic: current + previous).
COOKIE_VALID_TICKS = 2


@dataclass(frozen=True)
class CookieState:
    """What a validated cookie recovers about the connection."""

    mss: int
    wscale: Optional[int]  # always None: cookies cannot carry wscale


def fallback_codec(scheme_secret: bytes) -> "SynCookieCodec":
    """The codec a listener mints for cookie service off its puzzle
    secret — both the SYNCOOKIES mode and the syncache overload
    fallback derive it the same way, so a connection established
    through either rung validates against the same cookies."""
    return SynCookieCodec(secret=scheme_secret + b"/cookies")


class SynCookieCodec:
    """Encode/decode SYN cookies for one listening socket."""

    def __init__(self, secret: bytes) -> None:
        if not secret:
            raise NetworkError("cookie secret must be non-empty")
        self._secret = secret

    @staticmethod
    def time_counter(now: float) -> int:
        """The slow counter ``t`` at simulation time *now*."""
        return int(now // COOKIE_TICK_SECONDS)

    @staticmethod
    def _mss_index(mss: int) -> int:
        """Largest table entry not exceeding the client's MSS."""
        index = _MSS_INDEX_CACHE.get(mss)
        if index is not None:
            return index
        best_index = 0
        best_value = -1
        for i, value in enumerate(MSS_TABLE):
            if value <= mss and value > best_value:
                best_value = value
                best_index = i
        _MSS_INDEX_CACHE[mss] = best_index
        return best_index

    def _hash24(self, src_ip: int, src_port: int, dst_port: int,
                client_isn: int, t: int, mss_index: int) -> int:
        material = self._secret + _pack_material(
            src_ip, src_port, dst_port, client_isn & 0xFFFFFFFF, t,
            mss_index)
        digest = _sha256(material).digest()
        return int.from_bytes(digest[:3], "big")

    def encode(self, now: float, src_ip: int, src_port: int, dst_port: int,
               client_isn: int, client_mss: int) -> int:
        """Build the cookie ISN for a SYN-ACK."""
        t = self.time_counter(now)
        mss_index = self._mss_index(client_mss)
        h = self._hash24(src_ip, src_port, dst_port, client_isn, t,
                         mss_index)
        return ((t % 32) << 27) | (mss_index << 24) | h

    def decode(self, now: float, cookie: int, src_ip: int, src_port: int,
               dst_port: int, client_isn: int) -> Optional[CookieState]:
        """Validate an echoed cookie; None when invalid or stale."""
        if not 0 <= cookie <= 0xFFFFFFFF:
            return None
        t_bits = (cookie >> 27) & 0x1F
        mss_index = (cookie >> 24) & 0x7
        h = cookie & 0xFFFFFF
        t_now = self.time_counter(now)
        for age in range(COOKIE_VALID_TICKS):
            t = t_now - age
            if t < 0:
                break
            if t % 32 != t_bits:
                continue
            if self._hash24(src_ip, src_port, dst_port, client_isn, t,
                            mss_index) == h:
                return CookieState(mss=MSS_TABLE[mss_index], wscale=None)
        return None
