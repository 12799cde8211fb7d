"""Base host: address + CPU + TCP stack + hash accounting.

The CPU model is what turns puzzle difficulty into *time*: all solve work on
a host is serialised through :class:`CPUResource`, so a machine that must
brute-force ``k·2^(m-1)`` hashes per connection is physically limited to
``hash_rate / (k·2^(m-1))`` connections per second — the rate-limiting
mechanism the whole paper turns on.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.crypto.sha256 import HashCounter
from repro.errors import SimulationError
from repro.hosts.cpu import CPUProfile
from repro.net.network import Network
from repro.net.packet import Packet
from repro.obs import hub_for
from repro.sim.engine import Engine
from repro.tcp.stack import TCPStack


class CPUResource:
    """Serialised compute resource with busy-time accounting.

    Work is packed back-to-back: a job submitted while the CPU is busy
    starts when the previous job finishes. Because of that packing, the
    cumulative busy time *up to* any instant ``t`` is simply
    ``credited − max(0, busy_until − t)`` — which gives the Figure 9
    utilisation sampler an O(1) exact measurement.
    """

    def __init__(self, engine: Engine, profile: CPUProfile) -> None:
        self.engine = engine
        self.profile = profile
        self.busy_until = 0.0
        self._credited = 0.0
        self.jobs_run = 0

    @property
    def hash_rate(self) -> float:
        return self.profile.hash_rate

    def backlog_seconds(self) -> float:
        """Queued work ahead of a new submission, in seconds."""
        return max(0.0, self.busy_until - self.engine.now)

    def run(self, hashes: int, callback: Callable[[], None]) -> float:
        """Queue *hashes* of brute-force work; *callback* fires when done.

        Returns the completion time.
        """
        if hashes < 0:
            raise SimulationError(f"hashes must be >= 0, got {hashes!r}")
        now = self.engine.now
        start = max(now, self.busy_until)
        duration = hashes / self.hash_rate
        self.busy_until = start + duration
        self._credited += duration
        self.jobs_run += 1
        self.engine.schedule_at(self.busy_until, callback)
        return self.busy_until

    def consume(self, hashes: float) -> None:
        """Account for synchronous work (e.g. server-side verification)."""
        if hashes < 0:
            raise SimulationError(f"hashes must be >= 0, got {hashes!r}")
        # The profile's rate directly, not the hash_rate property: this
        # runs once per issued challenge.
        duration = hashes / self.profile.hash_rate
        start = self.busy_until
        now = self.engine.now
        if now > start:
            start = now
        self.busy_until = start + duration
        self._credited += duration

    def consume_seconds(self, seconds: float) -> None:
        """Account for non-hash CPU work (e.g. request processing)."""
        if seconds < 0:
            raise SimulationError(f"seconds must be >= 0, got {seconds!r}")
        start = self.busy_until
        now = self.engine.now
        if now > start:
            start = now
        self.busy_until = start + seconds
        self._credited += seconds

    def busy_seconds(self, at: Optional[float] = None) -> float:
        """Cumulative busy seconds up to *at* (default: now)."""
        if at is None:
            at = self.engine.now
        return self._credited - max(0.0, self.busy_until - at)


class Host:
    """A machine on the experiment network."""

    def __init__(self, name: str, address: int, engine: Engine,
                 network: Network, cpu_profile: CPUProfile,
                 rng: random.Random) -> None:
        self.name = name
        self.address = address
        self.engine = engine
        self.network = network
        self.rng = rng
        self.cpu = CPUResource(engine, cpu_profile)
        self.hash_counter = HashCounter(name)
        # Observability: every host on one engine shares the engine's hub;
        # `mib` is this host's own SNMP-style counter scope.
        self.obs = hub_for(engine)
        self.mib = self.obs.counters.scope(name)
        self.tcp = TCPStack(self)
        network.register(self)

    @property
    def now(self) -> float:
        """This host's wall-clock reading: engine time plus injected skew.

        Timestamp generation/verification (puzzle challenges, SYN
        cookies) reads this; internal timers stay on the engine's
        monotonic clock, matching how real clock drift perturbs wall
        reads but not jiffies.
        """
        return self.engine.now_for(self.name)

    def send(self, packet: Packet) -> None:
        self.network.send(self, packet)

    def receive(self, packet: Packet) -> None:
        # Only forwards: the compiled delivery (repro.net.floodpath) skips
        # this frame and calls self.tcp.receive itself.
        self.tcp.receive(packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        from repro.net.addresses import format_ip

        return f"<Host {self.name} {format_ip(self.address)}>"
