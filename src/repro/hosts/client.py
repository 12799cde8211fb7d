"""Benign clients: Poisson request arrivals, puzzle solving, timeouts.

Each client issues ``gettext/size`` requests at exponentially distributed
intervals (§6: 15 machines, 20 requests/second, 10,000 bytes). A request's
lifecycle: connect (solving a challenge if one arrives and the machine is
patched and willing) → send the request → await the full response →
success; RST or timeout → failure.

A client whose CPU is saturated with pending puzzle work defers new
requests (``max_cpu_backlog``) — a browser on a busy machine stalls rather
than queueing unbounded work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hosts.host import Host
from repro.metrics.connections import ConnectionRecord, ConnectionTracker
from repro.sim.process import PoissonProcess
from repro.tcp.connection import ClientConnConfig, ClientConnection


@dataclass
class ClientConfig:
    """Benign-client behaviour knobs."""

    server_ip: int = 0
    server_port: int = 80
    request_rate: float = 20.0       # requests/second (Poisson)
    request_size: int = 10_000       # bytes of text requested
    request_overhead: int = 120      # bytes of the request itself
    request_timeout: float = 10.0    # give up waiting for the response
    supports_puzzles: bool = True    # machine runs the kernel patch
    solve_puzzles: bool = True       # and is willing to solve
    max_cpu_backlog: float = 1.0     # defer new requests past this (s)
    #: Solver instance (None → the modelled solver). Must match the
    #: server scheme's mode; the scenario builder wires this.
    solver: Optional[object] = None
    label: str = "client"

    def conn_config(self) -> ClientConnConfig:
        """The per-connection handshake config this client uses."""
        kwargs = dict(supports_puzzles=self.supports_puzzles,
                      solve_puzzles=self.solve_puzzles)
        if self.solver is not None:
            kwargs["solver"] = self.solver
        return ClientConnConfig(**kwargs)


class BenignClient:
    """One client machine's request generator."""

    def __init__(self, host: Host, config: ClientConfig,
                 tracker: Optional[ConnectionTracker] = None) -> None:
        self.host = host
        self.config = config
        self.tracker = tracker
        self.deferred = 0  # requests skipped because the CPU was saturated
        # One handshake config for every request this machine makes.
        self._conn_config = config.conn_config()
        self._process = PoissonProcess(
            host.engine, self._new_request, rate=config.request_rate,
            rng=host.rng)

    def start(self, delay: Optional[float] = None) -> None:
        self._process.start(delay)

    def stop(self) -> None:
        self._process.stop()

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def _new_request(self) -> None:
        if self.host.cpu.backlog_seconds() > self.config.max_cpu_backlog:
            self.deferred += 1
            return
        record = (self.tracker.open(self.config.label)
                  if self.tracker is not None else None)
        connection = self.host.tcp.connect(
            self.config.server_ip, self.config.server_port,
            self._conn_config)
        _Request(self, connection, record)


class _Request:
    """Tracks one connection + request/response exchange."""

    def __init__(self, client: BenignClient, connection: ClientConnection,
                 record: Optional[ConnectionRecord]) -> None:
        self.client = client
        self.connection = connection
        self.record = record
        self.received = 0
        self._finished = False
        connection.on_established = self._on_established
        connection.on_data = self._on_data
        connection.on_reset = self._on_reset
        connection.on_failed = self._on_failed
        self._timeout = client.host.engine.schedule(
            client.config.request_timeout, self._on_timeout)

    def _on_established(self, connection: ClientConnection) -> None:
        if self.record is not None and self.client.tracker is not None:
            self.client.tracker.established(
                self.record, challenged=connection.was_challenged)
        connection.send_data(
            self.client.config.request_overhead,
            app_data=("gettext", self.client.config.request_size))

    def _on_data(self, connection: ClientConnection, payload_bytes: int,
                 app_data: object) -> None:
        self.received += payload_bytes
        if self.received >= self.client.config.request_size:
            self._finish(success=True)

    def _on_reset(self, connection: ClientConnection) -> None:
        self._finish(success=False, reason="reset")

    def _on_failed(self, connection: ClientConnection, reason: str) -> None:
        self._finish(success=False, reason=reason)

    def _on_timeout(self) -> None:
        self._finish(success=False, reason="timeout")

    def _finish(self, success: bool, reason: str = "") -> None:
        if self._finished:
            return
        self._finished = True
        self._timeout.cancel()
        if self.record is not None and self.client.tracker is not None:
            if success:
                self.client.tracker.completed(self.record)
            else:
                self.client.tracker.failed(self.record, reason)
        self.connection.abort()


class KeepAliveClient:
    """A benign client using HTTP/1.1-style persistent sessions (§4.2).

    One TCP connection (one puzzle, if challenged) carries many requests.
    Arrivals are Poisson like :class:`BenignClient`'s; requests are issued
    serially on the live session — arrivals during an in-flight exchange
    queue up to ``max_queued``, beyond which they are dropped as failures
    (a saturated browser tab). When the session dies (RST, timeout) the
    next arrival pays for a fresh handshake.
    """

    def __init__(self, host: Host, config: ClientConfig,
                 tracker: Optional[ConnectionTracker] = None) -> None:
        self.host = host
        self.config = config
        self.tracker = tracker
        self.deferred = 0
        self.sessions_opened = 0
        self.max_queued = 50
        self._conn: Optional[ClientConnection] = None
        self._inflight: Optional[ConnectionRecord] = None
        self._queue: list = []
        self._received = 0
        self._timeout = None
        self._process = PoissonProcess(
            host.engine, self._new_request, rate=config.request_rate,
            rng=host.rng)

    def start(self, delay: Optional[float] = None) -> None:
        self._process.start(delay)

    def stop(self) -> None:
        self._process.stop()

    # ------------------------------------------------------------------
    def _new_request(self) -> None:
        if self.host.cpu.backlog_seconds() > self.config.max_cpu_backlog:
            self.deferred += 1
            return
        record = (self.tracker.open(self.config.label)
                  if self.tracker is not None else None)
        if self._inflight is not None or (
                self._conn is not None and self._conn.established_at is
                None):
            if len(self._queue) >= self.max_queued:
                if record is not None:
                    self.tracker.failed(record, "queue-full")
                return
            self._queue.append(record)
            return
        self._issue(record)

    def _issue(self, record) -> None:
        self._inflight = record
        self._received = 0
        if self._conn is None:
            self.sessions_opened += 1
            self._conn = self.host.tcp.connect(
                self.config.server_ip, self.config.server_port,
                self.config.conn_config())
            self._conn.on_established = self._on_established
            self._conn.on_data = self._on_data
            self._conn.on_reset = self._on_reset
            self._conn.on_failed = self._on_failed
        else:
            self._send_request()
        self._timeout = self.host.engine.schedule(
            self.config.request_timeout, self._on_timeout)

    def _send_request(self) -> None:
        self._conn.send_data(self.config.request_overhead,
                             app_data=("gettext",
                                       self.config.request_size))

    def _on_established(self, connection: ClientConnection) -> None:
        if self._inflight is not None and self.tracker is not None:
            self.tracker.established(
                self._inflight, challenged=connection.was_challenged)
        self._send_request()

    def _on_data(self, connection, payload_bytes: int,
                 app_data: object) -> None:
        self._received += payload_bytes
        if self._received >= self.config.request_size:
            self._complete(success=True)

    def _on_reset(self, connection) -> None:
        self._teardown("reset")

    def _on_failed(self, connection, reason: str) -> None:
        self._teardown(reason)

    def _on_timeout(self) -> None:
        self._teardown("timeout")

    # ------------------------------------------------------------------
    def _complete(self, success: bool) -> None:
        if self._timeout is not None:
            self._timeout.cancel()
            self._timeout = None
        if self._inflight is not None and self.tracker is not None:
            if success:
                self.tracker.completed(self._inflight)
        self._inflight = None
        self._pump()

    def _teardown(self, reason: str) -> None:
        """Session died: fail the in-flight request, drop the session."""
        if self._timeout is not None:
            self._timeout.cancel()
            self._timeout = None
        if self._inflight is not None and self.tracker is not None:
            self.tracker.failed(self._inflight, reason)
        self._inflight = None
        if self._conn is not None:
            self._conn.abort()
            self._conn = None
        self._pump()

    def _pump(self) -> None:
        if self._inflight is None and self._queue:
            self._issue(self._queue.pop(0))
