"""Attacker models (§6): spoofed SYN flooders and connection flooders.

* :class:`SynFlooder` — the hping3 behaviour: raw SYN packets with random
  spoofed sources at a constant rate, never completing handshakes. Targets
  the *listen* queue.
* :class:`ConnectionFlooder` — the nping behaviour: real source address,
  completes the three-way handshake and then goes silent, holding its
  accept-queue/worker slot. Targets the *accept* queue. The ``solve``
  flag selects a patched bot that answers challenges (burning its own CPU —
  which is exactly the rate limiter) versus a stock bot whose plain ACKs a
  protected server ignores.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import PortsExhaustedError, SimulationError
from repro.hosts.host import Host
from repro.metrics.connections import ConnectionTracker
from repro.net.addresses import SpoofingPool
from repro.net.floodpath import syn_packet
from repro.net.packet import FLAG_ACK, Packet, TCPOptions
from repro.sim.process import PeriodicProcess
from repro.tcp.connection import ClientConnConfig, ClientConnection


@dataclass
class AttackerConfig:
    """Per-bot attack parameters."""

    server_ip: int = 0
    server_port: int = 80
    rate: float = 500.0              # attempts/second (§6 default)
    solve: bool = False              # answer challenges? (Experiment 5 "SA")
    hold_time: float = 30.0          # abandon "established" zombies after
    #: nping-style blocking socket pool: at most this many unresolved
    #: connection attempts in flight. Against an unprotected server a slot
    #: is held for ~one RTT (full configured rate); against a challenging
    #: server slots are held until :attr:`tool_timeout`, so the *measured*
    #: attack rate falls to ≈ max_pending/tool_timeout per bot — the
    #: Figures 13(a)/14(a) saturation.
    max_pending: int = 150
    #: The tool's per-connection timeout: how long a slot stays blocked on
    #: an attempt whose handshake is not progressing.
    tool_timeout: float = 1.0
    #: Solver instance for solving bots (None → the modelled solver);
    #: must match the server scheme's mode.
    solver: Optional[object] = None
    label: str = "attacker"


@dataclass
class AttackStats:
    syns_sent: int = 0
    attempts: int = 0
    pool_stalled: int = 0            # attempts not made: socket pool full


class SynFlooder:
    """Raw spoofed-SYN generator (no TCP state of its own)."""

    def __init__(self, host: Host, config: AttackerConfig) -> None:
        self.host = host
        self.config = config
        self.stats = AttackStats()
        self._pool = SpoofingPool(host.rng)
        # Self-scheduled firing loop instead of a PeriodicProcess: the
        # wrapper's _fire frame is pure overhead at flood rates, and this
        # bot's action needs none of the process bookkeeping. The
        # schedule call order (action first, reschedule after) matches
        # PeriodicProcess exactly, so event ids and times are unchanged.
        if config.rate <= 0:
            raise SimulationError(
                f"rate must be positive, got {config.rate!r}")
        self._interval = 1.0 / config.rate
        self._running = False
        self._event = None
        # The compiled firing loop (repro.net.floodpath), resolved on the
        # first fire so the server can register after this bot is built.
        # None = unresolved, False = unavailable (compiled core not
        # adopted, or no listener at the target).
        self._fast = None

    def start(self, delay: float = 0.0) -> None:
        if self._running:
            raise SimulationError("process already started")
        self._running = True
        self._event = self.host.engine.schedule(delay, self._fire)

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        if not self._running:
            return
        fast = self._fast
        if fast is None:
            fast = self.host.network.syn_fast_path(self)
            self._fast = fast = fast if fast is not None else False
        if fast is not False:
            # This fire, in C, with the same draws, send and reschedule
            # as below; the engine then calls the compiled loop directly
            # until the next start().
            fast.fire()
            return
        rng = self.host.rng
        self._send_packet(self._pool.draw(), rng.randrange(1024, 65536),
                          rng.getrandbits(32))
        self.stats.syns_sent += 1
        if self._running:
            self._event = self.host.engine.schedule(self._interval,
                                                    self._fire)

    def _send_packet(self, src_ip: int, src_port: int, seq: int) -> None:
        """Send one spoofed SYN through the per-packet pipeline."""
        self.host.send(syn_packet(src_ip, self.config.server_ip, src_port,
                                  self.config.server_port, seq))


class ConnectionFlooder:
    """Handshake-completing flood from a real address."""

    def __init__(self, host: Host, config: AttackerConfig,
                 tracker: Optional[ConnectionTracker] = None) -> None:
        self.host = host
        self.config = config
        self.tracker = tracker
        self.stats = AttackStats()
        self._zombies: Dict[ClientConnection, float] = {}
        self._slot_holders: set = set()  # conns occupying a pool slot
        # One handshake config for every attempt: the tool's sockets all
        # behave alike, and a flood tool fires and forgets (no SYN
        # retransmissions).
        kwargs = dict(supports_puzzles=config.solve,
                      solve_puzzles=config.solve, syn_retries=0)
        if config.solver is not None:
            kwargs["solver"] = config.solver
        self._conn_config = ClientConnConfig(**kwargs)
        # Bound once: every attempt installs the same three callbacks,
        # and a zombie keeps them for hold_time.
        self._established_cb = self._on_established
        self._resolved_cb = self._on_resolved
        self._failed_cb = self._on_failed
        self._process = PeriodicProcess(host.engine, self._fire,
                                        rate=config.rate)
        # A single periodic sweep replaces per-connection reap timers —
        # at flood rates the timers alone would dominate the event heap.
        self._reaper = PeriodicProcess(
            host.engine, self._sweep,
            interval=max(0.5, config.hold_time / 4.0))

    def start(self, delay: float = 0.0) -> None:
        self._process.start(delay)
        self._reaper.start(delay)

    def stop(self) -> None:
        self._process.stop()
        self._reaper.stop()
        for connection in list(self._zombies):
            connection.abort()
        self._zombies.clear()

    def _fire(self) -> None:
        config = self.config
        if len(self._slot_holders) >= config.max_pending:
            # All of the tool's sockets are blocked mid-handshake (solving
            # or waiting out the tool timeout) — the measured attack rate
            # falls below the configured one (Figures 13a/14a).
            self.stats.pool_stalled += 1
            return
        try:
            connection = self.host.tcp.connect(
                config.server_ip, config.server_port, self._conn_config)
        except PortsExhaustedError:
            # Every ephemeral port toward the server is held by a zombie:
            # the tool's connect() fails (EADDRNOTAVAIL) and no attempt
            # is made until the sweep frees some.
            self.stats.pool_stalled += 1
            return
        if self.tracker is not None:
            connection.record = self.tracker.open(config.label)
        self.stats.attempts += 1
        self.stats.syns_sent += 1
        self._slot_holders.add(connection)
        self._zombies[connection] = self.host.engine.now
        connection.on_established = self._established_cb
        connection.on_reset = self._resolved_cb
        connection.on_failed = self._failed_cb

    def _on_established(self, connection: ClientConnection) -> None:
        if connection.record is not None:
            self.tracker.established(
                connection.record, challenged=connection.was_challenged)
        self._slot_holders.discard(connection)
        # Go silent: never send data, keep the server-side slot occupied
        # (§6's nping flood); the tool's own socket slot is free again.

    def _on_resolved(self, connection: ClientConnection) -> None:
        self._zombies.pop(connection, None)
        self._slot_holders.discard(connection)

    def _on_failed(self, connection: ClientConnection,
                   reason: str) -> None:
        self._zombies.pop(connection, None)
        if reason == "challenge-abandoned" and \
                connection in self._slot_holders:
            # The kernel dropped the solve, but the blocking tool socket
            # only notices at its own timeout.
            self.host.engine.schedule(
                self.config.tool_timeout,
                lambda: self._slot_holders.discard(connection))
        else:
            self._slot_holders.discard(connection)

    def _sweep(self) -> None:
        cutoff = self.host.engine.now - self.config.hold_time
        stale = [conn for conn, born in self._zombies.items()
                 if born < cutoff]
        for connection in stale:
            connection.abort()
            del self._zombies[connection]


class SolutionFlooder:
    """A verification-exhaustion attacker (§7, "Solution floods").

    Sends a barrage of ACK packets carrying *bogus* solutions, forcing the
    server to spend ``1 + up-to-k`` hash operations rejecting each. The
    paper's §7 analysis: a server hashing at 10.8 M ops/s would need
    ~5.4 M packets/s of this to saturate — the ablation benchmarks measure
    exactly that trade-off on our simulated server.

    Requires knowing the server's current ``(k, m, l)`` (public — they are
    in every challenge); the solution bytes are random garbage.
    """

    def __init__(self, host: Host, config: AttackerConfig,
                 params=None) -> None:
        from repro.puzzles.params import PuzzleParams

        self.host = host
        self.config = config
        self.params = params if params is not None else PuzzleParams(
            k=2, m=17)
        self.stats = AttackStats()
        self._process = PeriodicProcess(host.engine, self._fire,
                                        rate=config.rate)

    def start(self, delay: float = 0.0) -> None:
        self._process.start(delay)

    def stop(self) -> None:
        self._process.stop()

    def _fire(self) -> None:
        from repro.puzzles.juels import Solution

        rng = self.host.rng
        bogus = Solution(
            params=self.params,
            solutions=[bytes(rng.getrandbits(8) for _ in
                             range(self.params.length_bytes))
                       for _ in range(self.params.k)],
            issued_at_ms=int(self.host.engine.now * 1000) & 0xFFFFFFFF,
        )
        packet = Packet(
            src_ip=self.host.address,
            dst_ip=self.config.server_ip,
            src_port=self.host.rng.randrange(1024, 65536),
            dst_port=self.config.server_port,
            seq=self.host.rng.getrandbits(32),
            flags=FLAG_ACK,
            options=TCPOptions(solution=bogus))
        self.host.send(packet)
        self.stats.syns_sent += 1
        self.stats.attempts += 1
