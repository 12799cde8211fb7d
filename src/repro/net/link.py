"""Point-to-point link with serialization, propagation and bounded queueing.

A link is modelled analytically rather than with per-hop events: it keeps
the absolute time its transmitter becomes free (``_next_free``) and, when a
packet is offered at time ``t``, computes

* queueing delay  — ``max(0, _next_free − t)``,
* serialization   — ``bytes × 8 / rate``,
* propagation     — fixed ``delay``,

updating ``_next_free`` as a side effect. Because the engine processes sends
in global time order, per-link arrival order is monotone and this analytic
fold is exactly equivalent to simulating the FIFO hop by hop — at one event
per packet per *path* instead of per *link*.

The queue is byte-bounded (droptail): a packet that would have to wait for
more than ``buffer_bytes`` worth of backlog is dropped.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import NetworkError


class Link:
    """One direction of a network link.

    Parameters
    ----------
    rate_bps:
        Transmission rate, bits/second (e.g. ``100e6`` for the testbed's
        host links, ``1e9`` for the server and backbone links).
    delay:
        One-way propagation delay in seconds.
    buffer_bytes:
        Droptail queue capacity in bytes.
    loss_rate:
        Independent per-packet corruption/loss probability (0 disables —
        the testbed's links are clean; failure-injection tests raise it).
    rng:
        RNG for loss draws; required when ``loss_rate > 0``.
    name:
        For diagnostics and drop accounting.
    fault:
        Optional fault-injection hook (duck-typed; see
        ``repro.faults.injectors``). When set, ``classify(now)`` is asked
        for a verdict per offered packet: ``None`` passes the packet
        through, ``"down"`` drops it outright (link flap — the frame
        never transmits), ``"loss"`` burns airtime then loses the frame
        (Gilbert–Elliott burst corruption).

    The remaining keywords seed the transmitter state and counters.

    Every field lives in a slot: the compiled fold
    (:mod:`repro.net.fabric`) resolves each slot's offset once per path
    and reads and writes them directly. The ``__dict__`` slot keeps
    per-instance overrides possible — an ``offer`` set on one link sends
    every fold over it back to the per-link Python loop.
    """

    __slots__ = ("rate_bps", "delay", "buffer_bytes", "loss_rate", "rng",
                 "name", "_next_free", "packets_sent", "packets_dropped",
                 "packets_lost", "bytes_sent", "fault", "packets_faulted",
                 "__dict__")

    def __init__(self, rate_bps: float, delay: float = 0.0005,
                 buffer_bytes: int = 256 * 1024, loss_rate: float = 0.0,
                 rng: Optional[random.Random] = None, name: str = "",
                 _next_free: float = 0.0, packets_sent: int = 0,
                 packets_dropped: int = 0, packets_lost: int = 0,
                 bytes_sent: int = 0, fault: Optional[object] = None,
                 packets_faulted: int = 0) -> None:
        if rate_bps <= 0:
            raise NetworkError(f"rate_bps must be positive, got "
                               f"{rate_bps!r}")
        if delay < 0:
            raise NetworkError(f"delay must be >= 0, got {delay!r}")
        if buffer_bytes <= 0:
            raise NetworkError(f"buffer_bytes must be positive, got "
                               f"{buffer_bytes!r}")
        if not 0.0 <= loss_rate < 1.0:
            raise NetworkError(f"loss_rate must be in [0, 1), got "
                               f"{loss_rate!r}")
        if loss_rate > 0 and rng is None:
            raise NetworkError("loss_rate > 0 requires an rng")
        self.rate_bps = rate_bps
        self.delay = delay
        self.buffer_bytes = buffer_bytes
        self.loss_rate = loss_rate
        self.rng = rng
        self.name = name
        self._next_free = _next_free
        self.packets_sent = packets_sent
        self.packets_dropped = packets_dropped
        self.packets_lost = packets_lost
        self.bytes_sent = bytes_sent
        self.fault = fault
        self.packets_faulted = packets_faulted

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(rate_bps={self.rate_bps!r}, "
                f"delay={self.delay!r}, buffer_bytes={self.buffer_bytes!r}, "
                f"loss_rate={self.loss_rate!r}, name={self.name!r})")

    def serialization_delay(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / self.rate_bps

    def backlog_bytes(self, now: float) -> float:
        """Bytes currently queued ahead of a new arrival at *now*."""
        waiting = max(0.0, self._next_free - now)
        return waiting * self.rate_bps / 8.0

    def offer(self, now: float, size_bytes: int) -> Optional[float]:
        """Offer a packet; returns its arrival time at the far end, or
        ``None`` if the droptail queue rejects it.

        This is the fabric's innermost loop (one call per packet per path
        link), so the backlog/serialization helpers are inlined — with the
        exact same arithmetic, so drop decisions and arrival times are
        bit-identical to the helper formulation.
        """
        if size_bytes <= 0:
            raise NetworkError(f"size_bytes must be positive, got "
                               f"{size_bytes!r}")
        fault = self.fault
        if fault is not None:
            verdict = fault.classify(now)
            if verdict is not None:
                self.packets_faulted += 1
                if verdict == "loss":
                    # Burst corruption: the frame occupies airtime and is
                    # then lost, like the independent loss_rate path.
                    start = max(now, self._next_free)
                    self._next_free = start + self.serialization_delay(
                        size_bytes)
                return None
        rate = self.rate_bps
        next_free = self._next_free
        waiting = next_free - now
        if waiting < 0.0:
            waiting = 0.0
        if waiting * rate / 8.0 + size_bytes > self.buffer_bytes:
            self.packets_dropped += 1
            return None
        start = now if now > next_free else next_free
        if self.loss_rate > 0 and self.rng.random() < self.loss_rate:
            # The frame still occupies air time before being lost.
            self.packets_lost += 1
            self._next_free = start + size_bytes * 8.0 / rate
            return None
        self._next_free = next_free = start + size_bytes * 8.0 / rate
        self.packets_sent += 1
        self.bytes_sent += size_bytes
        return next_free + self.delay

    def utilization(self, now: float, since: float = 0.0) -> float:
        """Approximate long-run utilization: bytes sent over elapsed time."""
        elapsed = now - since
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.bytes_sent * 8.0 / (self.rate_bps * elapsed))

    def reset_counters(self) -> None:
        self.packets_sent = 0
        self.packets_dropped = 0
        self.packets_lost = 0
        self.bytes_sent = 0
        self.packets_faulted = 0
