"""Connection endpoints: the client handshake state machine and the
server-side established connection.

Data transfer after the handshake is deliberately thin — the evaluation's
metrics (throughput, connection time, completion rate) need request and
response *bytes with correct timing*, not sequence-number bookkeeping. A
response is sent as one aggregated burst packet whose ``extra_frames``
preserves per-segment header overhead (see :mod:`repro.net.packet`).
Lost data is not retransmitted; the client application layers a request
timeout on top, which is how the experiments count failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

from repro.net.packet import (FLAG_ACK, FLAG_PSHACK, FLAG_RST,
                              FLAG_SYN, FLAG_SYNACK, Packet, TCPOptions)
from repro.puzzles.juels import Challenge, ModeledSolver, Solution
from repro.tcp.constants import (
    DEFAULT_MSS,
    DEFAULT_SYN_RETRIES,
    DEFAULT_SYN_TIMEOUT,
    DEFAULT_WSCALE,
)
from repro.tcp.tcb import EstablishPath, TCBState

if TYPE_CHECKING:  # pragma: no cover
    from repro.tcp.stack import TCPStack

# The states every segment and transition tests, as module globals: on
# CPython 3.11 reading a member off the Enum class goes through its
# metaclass and costs about as much as a call frame.
_SYN_SENT = TCBState.SYN_SENT
_SOLVING = TCBState.SOLVING
_ESTABLISHED = TCBState.ESTABLISHED
_CLOSED = TCBState.CLOSED
_RESET = TCBState.RESET


@dataclass
class ClientConnConfig:
    """Client-side handshake behaviour.

    ``supports_puzzles`` models whether the machine runs the kernel patch;
    an unpatched machine ignores the unknown challenge option and sends a
    plain ACK (Experiment 5's "NC"/"NA" behaviours). ``solve_puzzles``
    lets a patched machine decline solving (sysctl opt-out, §7).
    """

    supports_puzzles: bool = True
    solve_puzzles: bool = True
    mss: int = DEFAULT_MSS
    wscale: int = DEFAULT_WSCALE
    use_timestamps: bool = True
    syn_timeout: float = DEFAULT_SYN_TIMEOUT
    syn_retries: int = DEFAULT_SYN_RETRIES
    solver: object = field(default_factory=ModeledSolver)
    #: Abandon a challenge when the CPU already has this many seconds of
    #: queued solve work — a kernel cannot queue puzzle work unboundedly,
    #: and a solution computed after the expiry window is wasted anyway.
    solve_backlog_limit: float = 1.0


class ClientConnection:
    """Active-open endpoint: SYN → (solve?) → ACK → ESTABLISHED → data."""

    __slots__ = ("stack", "host", "local_port", "remote_ip", "remote_port",
                 "config", "state", "isn", "remote_isn", "started_at",
                 "established_at", "was_challenged", "solve_attempts",
                 "_solve_started", "_syn_timer", "_syn_sent",
                 "on_established", "on_data", "on_reset", "on_failed",
                 "record")

    def __init__(self, stack: "TCPStack", local_port: int, remote_ip: int,
                 remote_port: int, config: ClientConnConfig) -> None:
        self.stack = stack
        self.host = stack.host
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.config = config
        self.state = _CLOSED
        self.isn = stack.new_isn()
        self.remote_isn: Optional[int] = None
        self.started_at: Optional[float] = None
        self.established_at: Optional[float] = None
        self.was_challenged = False
        self.solve_attempts = 0
        self._solve_started: Optional[float] = None
        self._syn_timer = None
        self._syn_sent = 0
        # Application callbacks.
        self.on_established: Optional[Callable[["ClientConnection"], None]] = None
        self.on_data: Optional[Callable[["ClientConnection", int, object],
                                        None]] = None
        self.on_reset: Optional[Callable[["ClientConnection"], None]] = None
        self.on_failed: Optional[Callable[["ClientConnection", str],
                                          None]] = None
        #: The opener's tracker record for this attempt, if it keeps one
        #: (:class:`~repro.metrics.connections.ConnectionRecord`).
        self.record = None

    # ------------------------------------------------------------------
    # Active open
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.state = _SYN_SENT
        self.started_at = self.host.engine.now
        self._send_syn()

    def _send_syn(self) -> None:
        config = self.config
        host = self.host
        # Positional construction: keyword matching costs more than the
        # constructors' own work at flood rates.
        ts_val = (int(host.engine.now * 1000) & 0xFFFFFFFF
                  if config.use_timestamps else None)
        host.send(Packet(host.address, self.remote_ip, self.local_port,
                         self.remote_port, self.isn, 0, FLAG_SYN,
                         TCPOptions(config.mss, config.wscale, ts_val)))
        self._syn_sent += 1
        if self._syn_sent > 1:
            host.mib.incr("SynRetrans")
        timeout = config.syn_timeout * (2 ** (self._syn_sent - 1))
        if self._syn_sent <= config.syn_retries:
            self._syn_timer = host.engine.schedule(timeout,
                                                   self._syn_timeout)
        else:
            self._syn_timer = host.engine.schedule(timeout, self._give_up)

    def _syn_timeout(self) -> None:
        if self.state is not _SYN_SENT:
            return
        self._send_syn()

    def _give_up(self) -> None:
        if self.state is not _SYN_SENT:
            return
        self.state = _CLOSED
        self.stack.forget(self)
        if self.on_failed is not None:
            self.on_failed(self, "syn-timeout")

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def handle(self, packet: Packet) -> None:
        flags = packet.flags
        if flags & FLAG_RST:
            self._handle_rst()
            return
        if flags & FLAG_SYNACK == FLAG_SYNACK:
            self._handle_synack(packet)
            return
        if packet.payload_bytes > 0 and self.state is _ESTABLISHED:
            if self.on_data is not None:
                self.on_data(self, packet.payload_bytes,
                             getattr(packet, "app_data", None))

    def _handle_rst(self) -> None:
        state = self.state
        if state is _CLOSED or state is _RESET:
            return
        self._cancel_syn_timer()
        self.state = _RESET
        self.stack.forget(self)
        if self.on_reset is not None:
            self.on_reset(self)

    def _handle_synack(self, packet: Packet) -> None:
        if self.state is not _SYN_SENT:
            # A duplicate SYN-ACK retransmission, or another copy while
            # solving an earlier one.
            return
        challenge = packet.options.challenge
        self._cancel_syn_timer()
        self.remote_isn = packet.seq
        if (challenge is not None and self.config.supports_puzzles
                and self.config.solve_puzzles):
            self._begin_solving(challenge)
            return
        # No challenge — or one this machine cannot/will not parse: plain
        # ACK. (An unpatched host skips unknown options; RFC 1122 §4.2.2.5.)
        self._establish(solution=None)

    def _begin_solving(self, challenge: Challenge) -> None:
        self.was_challenged = True
        self.host.mib.incr("ChallengesReceived")
        if (self.host.cpu.backlog_seconds()
                > self.config.solve_backlog_limit):
            # The solve queue is already deep enough that this solution
            # would go out stale; drop the attempt instead of queueing.
            self.host.mib.incr("ChallengesAbandoned")
            self.state = _CLOSED
            self.stack.forget(self)
            if self.on_failed is not None:
                self.on_failed(self, "challenge-abandoned")
            return
        self.state = _SOLVING
        self._solve_started = self.host.engine.now
        solution = self.config.solver.solve(
            challenge, self.host.rng, counter=self.host.hash_counter)
        self.solve_attempts = solution.attempts
        solution.mss = self.config.mss
        solution.wscale = self.config.wscale
        # The brute force occupies the host CPU; the ACK leaves when the
        # (serialised) work completes — this is the rate limiter.
        self.host.cpu.run(solution.attempts,
                          lambda: self._establish(solution=solution))

    def _establish(self, solution: Optional[Solution]) -> None:
        state = self.state
        if state is _CLOSED or state is _RESET:
            return  # aborted while solving
        host = self.host
        if solution is not None:
            host.mib.incr("PuzzlesSolved")
            if self._solve_started is not None:
                host.obs.hist.record(
                    "puzzle_solve", host.engine.now - self._solve_started)
        ts_val = (int(host.engine.now * 1000) & 0xFFFFFFFF
                  if self.config.use_timestamps else None)
        host.send(Packet(host.address, self.remote_ip, self.local_port,
                         self.remote_port, self.isn + 1,
                         (self.remote_isn or 0) + 1, FLAG_ACK,
                         TCPOptions(None, None, ts_val, None, None,
                                    solution)))
        # TCP enters ESTABLISHED on sending the ACK — even when the server
        # silently ignores it (the paper's deception mechanism, §5).
        self.state = _ESTABLISHED
        self.established_at = host.engine.now
        if self.on_established is not None:
            self.on_established(self)

    # ------------------------------------------------------------------
    # Data and teardown
    # ------------------------------------------------------------------
    def send_data(self, payload_bytes: int, app_data: object = None) -> None:
        if self.state is not _ESTABLISHED:
            return
        self.host.send(Packet(self.host.address, self.remote_ip,
                              self.local_port, self.remote_port,
                              self.isn + 1, (self.remote_isn or 0) + 1,
                              FLAG_PSHACK, None, payload_bytes, 0,
                              app_data))

    def abort(self) -> None:
        """Local teardown without notifying anyone (attacker hygiene)."""
        self._cancel_syn_timer()
        self.state = _CLOSED
        self.stack.forget(self)

    def _cancel_syn_timer(self) -> None:
        if self._syn_timer is not None:
            self._syn_timer.cancel()
            self._syn_timer = None

    @property
    def connect_time(self) -> Optional[float]:
        """Handshake latency: SYN sent → ESTABLISHED (Figure 6's metric)."""
        if self.started_at is None or self.established_at is None:
            return None
        return self.established_at - self.started_at


class ServerConnection:
    """Passive-open endpoint created when a handshake completes."""

    __slots__ = ("stack", "host", "local_port", "remote_ip", "remote_port",
                 "path", "mss", "wscale", "state", "established_at",
                 "_pending", "on_data")

    def __init__(self, stack: "TCPStack", local_port: int, remote_ip: int,
                 remote_port: int, path: EstablishPath, mss: int,
                 wscale: Optional[int]) -> None:
        self.stack = stack
        self.host = stack.host
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.path = path
        self.mss = mss
        self.wscale = wscale
        self.state = _ESTABLISHED
        self.established_at = stack.host.engine.now
        self._pending: list = []  # buffered (payload_bytes, app_data)
        self.on_data: Optional[Callable[["ServerConnection", int, object],
                                        None]] = None

    @property
    def flow(self) -> tuple:
        return (self.remote_ip, self.remote_port, self.local_port)

    def handle(self, packet: Packet) -> None:
        if packet.flags & FLAG_RST:
            self.state = _RESET
            self.stack.forget_server(self)
            return
        if packet.payload_bytes > 0:
            app_data = getattr(packet, "app_data", None)
            if self.on_data is not None:
                self.on_data(self, packet.payload_bytes, app_data)
            else:
                self._pending.append((packet.payload_bytes, app_data))

    def attach_reader(self, on_data: Callable[["ServerConnection", int,
                                               object], None]) -> None:
        """App accepted the connection: deliver buffered + future data."""
        self.on_data = on_data
        pending, self._pending = self._pending, []
        for payload_bytes, app_data in pending:
            on_data(self, payload_bytes, app_data)

    def send_data(self, payload_bytes: int, app_data: object = None) -> None:
        if self.state is not _ESTABLISHED:
            return
        # Aggregate the response into one burst packet; extra_frames keeps
        # the per-MSS-segment header overhead in the byte accounting.
        frames = max(1, math.ceil(payload_bytes / max(1, self.mss)))
        self.host.send(Packet(self.host.address, self.remote_ip,
                              self.local_port, self.remote_port, 0, 0,
                              FLAG_PSHACK, None, payload_bytes, frames - 1,
                              app_data))

    def close(self, reset: bool = False) -> None:
        """Tear down; with *reset*, notify the peer with an RST (how the
        app sheds idle/undead connections)."""
        if self.state is _CLOSED:
            return
        self.state = _CLOSED
        self.stack.forget_server(self)
        if reset:
            self.host.send(Packet(self.host.address, self.remote_ip,
                                  self.local_port, self.remote_port, 0, 0,
                                  FLAG_RST))
