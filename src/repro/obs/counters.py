"""SNMP-style counter registry — the simulator's ``netstat -s``.

Linux keeps its protocol statistics as named monotonic MIB counters
(``SynsRecv``, ``ListenOverflows``, …) that ``netstat -s`` renders; this
module gives every simulated host the same surface. Counters live in
per-host :class:`CounterScope` bags inside one :class:`CounterRegistry`
per simulation, and instrumentation sites increment them unconditionally —
an increment is one dict operation, cheap enough to leave always-on while
tracepoints (:mod:`repro.obs.trace`) stay gated.

The catalogue below documents every counter the stack increments and is
what the Prometheus exporter uses for ``# HELP`` lines. Scopes accept
counters outside the catalogue (experiments may mint their own), but the
drop-attribution helpers only reason about catalogued names.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

#: Counter name -> human description. Grouped roughly by subsystem; the
#: names are Linux-MIB flavoured so a kernel person can read the dump.
CATALOGUE: Dict[str, str] = {
    # -- stack demux ---------------------------------------------------
    "InSegs": "TCP segments delivered to the stack",
    "OutRsts": "RFC 793 catch-all resets sent (no matching state)",
    # -- listener, SYN side -------------------------------------------
    "SynsRecv": "SYN segments arriving at a listening socket",
    "SynAcksSent": "plain SYN-ACKs sent (stock half-open path)",
    "SynAckRetrans": "SYN-ACK retransmissions for half-open connections",
    "PuzzlesIssued": "puzzle challenges sent in SYN-ACKs",
    "SynCookiesSent": "SYN cookies sent in place of half-open state",
    "ListenOverflows": "SYNs dropped because the listen queue was full",
    "HalfOpenExpired":
        "half-open connections reaped after SYN-ACK retry exhaustion",
    "HalfOpenReclaimed":
        "half-open connections reclaimed by injected memory pressure",
    # -- listener, completion side ------------------------------------
    "SynCookiesRecv": "handshakes completed by a valid cookie echo",
    "SynCookiesFailed": "completing ACKs whose cookie failed validation",
    "PuzzlesVerified": "puzzle solutions that verified OK",
    "PuzzlesRejected":
        "puzzle solutions rejected (bad solution or parameter mismatch)",
    "ReplaysBlocked":
        "puzzle solutions rejected as stale or future-dated "
        "(outside the replay window)",
    "DeceptionAcksIgnored":
        "completing ACKs silently ignored while under attack "
        "(the §5 deception path)",
    "PlainAcksIgnored":
        "plain ACKs from hosts that ignored a challenge, silently dropped",
    "AcceptOverflows":
        "handshake completions refused because the accept queue was full",
    "EstabNormal": "handshakes established via the stock three-way path",
    "EstabCookie": "handshakes established via a SYN cookie",
    "EstabPuzzle": "handshakes established via a verified puzzle",
    "EstabSynCache": "handshakes established via the SYN cache",
    # -- SYN cache ------------------------------------------------------
    "SynCacheAdded": "compact half-open records inserted into the cache",
    "SynCacheEvictions": "cache records evicted by bucket overflow",
    "SynCacheHits": "completing ACKs that found their cache record",
    "SynCacheMisses": "completing ACKs whose cache record was gone",
    "SynCacheExpired": "cache records reaped by timeout expiry",
    "SynCacheRejects":
        "SYNs refused by the reject-new overflow policy (no record made)",
    # -- graceful-degradation ladder ------------------------------------
    "SynCacheCookieFallback":
        "SYNs answered with a stateless cookie because syncache occupancy "
        "crossed the high watermark",
    "AdmissionDrops":
        "SYNs dropped by the listener's token-bucket admission control",
    # -- fault injection ------------------------------------------------
    "MemoryPressureReclaims":
        "established connections reclaimed from the accept queue by "
        "injected memory pressure",
    # -- tooling ---------------------------------------------------------
    "cache_corrupt_entries":
        "result-cache entries dropped because their pickle was corrupt "
        "or truncated",
    # -- client side ----------------------------------------------------
    "SynRetrans": "client SYN retransmissions",
    "ChallengesReceived": "challenges this host started solving",
    "ChallengesAbandoned":
        "challenges dropped because the CPU solve backlog was too deep",
    "PuzzlesSolved": "puzzle solutions this host finished computing",
    # -- application server --------------------------------------------
    "RequestsServed": "application requests answered",
    "MalformedRequests": "requests rejected as malformed",
    "IdleWorkersShed": "silent connections shed by the worker idle timer",
}

#: Terminal causes a failed/refused handshake can be attributed to. The
#: instrumentation keeps these disjoint: one refused handshake event
#: increments exactly one of them. ``MemoryPressureReclaims`` is
#: deliberately excluded — accept-queue reclaim kills connections that
#: already counted as established, so including it would double-book.
DROP_CAUSES: Tuple[str, ...] = (
    "ListenOverflows",
    "HalfOpenExpired",
    "HalfOpenReclaimed",
    "AcceptOverflows",
    "DeceptionAcksIgnored",
    "PlainAcksIgnored",
    "PuzzlesRejected",
    "ReplaysBlocked",
    "SynCookiesFailed",
    "SynCacheEvictions",
    "SynCacheMisses",
    "SynCacheRejects",
    "AdmissionDrops",
)

#: Per-path establishment counters (sum = accepted handshakes).
ESTABLISHED_COUNTERS: Tuple[str, ...] = (
    "EstabNormal", "EstabCookie", "EstabPuzzle", "EstabSynCache")


class CounterScope:
    """One host's bag of named monotonic counters.

    Missing counters read as zero, so call sites never pre-register; the
    increment path is a single dict update.
    """

    __slots__ = ("name", "_values")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: Dict[str, int] = {}

    def incr(self, counter: str, n: int = 1) -> None:
        """Add *n* (default 1) to *counter*."""
        values = self._values
        values[counter] = values.get(counter, 0) + n

    def get(self, counter: str) -> int:
        return self._values.get(counter, 0)

    def __getitem__(self, counter: str) -> int:
        return self._values.get(counter, 0)

    def __contains__(self, counter: str) -> bool:
        return counter in self._values

    def __len__(self) -> int:
        return len(self._values)

    def snapshot(self) -> Dict[str, int]:
        """Name-sorted copy of every counter touched so far."""
        return dict(sorted(self._values.items()))

    def render(self) -> str:
        """``netstat -s``-style text: one indented line per counter."""
        lines = [f"{self.name}:"]
        for counter, value in sorted(self._values.items()):
            lines.append(f"    {value} {describe(counter)}")
        if len(lines) == 1:
            lines.append("    (no counters incremented)")
        return "\n".join(lines)


class CounterRegistry:
    """All scopes of one simulation, keyed by host name."""

    def __init__(self) -> None:
        self._scopes: Dict[str, CounterScope] = {}

    def scope(self, name: str) -> CounterScope:
        """The scope for *name*, created on first use."""
        scope = self._scopes.get(name)
        if scope is None:
            scope = CounterScope(name)
            self._scopes[name] = scope
        return scope

    def scopes(self) -> Iterator[CounterScope]:
        for name in sorted(self._scopes):
            yield self._scopes[name]

    def __len__(self) -> int:
        return len(self._scopes)

    def __contains__(self, name: str) -> bool:
        return name in self._scopes

    def total(self, counter: str) -> int:
        """Sum of *counter* across every scope."""
        return sum(s.get(counter) for s in self._scopes.values())

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        return {name: self._scopes[name].snapshot()
                for name in sorted(self._scopes)}

    def render(self) -> str:
        return "\n".join(scope.render() for scope in self.scopes())


def describe(counter: str) -> str:
    """The catalogue description, or the raw name for ad-hoc counters."""
    return CATALOGUE.get(counter, counter)


def drop_attribution(scope) -> Dict[str, int]:
    """Nonzero terminal drop causes for a listener host, name -> count.

    Because the increment sites are disjoint, summing these gives the
    total number of refused/failed handshake events, each attributed to
    exactly one cause. Accepts a live :class:`CounterScope` or a plain
    snapshot dict (``registry.snapshot()[host]``), whose ``get`` returns
    ``None`` for untouched counters.
    """
    return {cause: scope.get(cause) for cause in DROP_CAUSES
            if scope.get(cause)}


def established_total(scope) -> int:
    """Accepted handshakes across every establishment path.

    Accepts a live :class:`CounterScope` or a plain snapshot dict.
    """
    return sum(scope.get(name) or 0 for name in ESTABLISHED_COUNTERS)
