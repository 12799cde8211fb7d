"""Per-host TCP stack: demultiplexing, connection tables, RST generation.

The stack owns three tables —

* listeners by local port,
* client (active-open) connections by (local_port, remote_ip, remote_port),
* server (passive-open) connections by the same key —

and implements the catch-all RFC 793 rule the paper's deception mechanism
relies on: a non-SYN segment matching no connection draws an RST. That is
how a host that was silently ignored by an overloaded puzzle server finds
out, on first data, that it never really connected.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from typing import Dict, List, Optional, Protocol, Tuple

from repro.errors import NetworkError, PortsExhaustedError
from repro.net.packet import FLAG_ACK, FLAG_RST, FLAG_SYN, FLAG_SYNACK, \
    Packet
from repro.tcp.connection import ClientConnConfig, ClientConnection, \
    ServerConnection
from repro.tcp.listener import DefenseConfig, ListenSocket

Key = Tuple[int, int, int]  # (local_port, remote_ip, remote_port)

EPHEMERAL_BASE = 32768
EPHEMERAL_SPAN = 28232


class HostLike(Protocol):
    """What the stack needs from its host."""

    address: int
    name: str
    engine: object
    rng: random.Random
    cpu: object
    hash_counter: object
    obs: object   # repro.obs.Observability hub shared engine-wide
    mib: object   # this host's repro.obs CounterScope

    def send(self, packet: Packet) -> None: ...  # noqa: E704


class TCPStack:
    """One host's TCP endpoint machinery."""

    def __init__(self, host: HostLike) -> None:
        self.host = host
        self._listeners: Dict[int, ListenSocket] = {}
        self._clients: Dict[Key, ClientConnection] = {}
        self._servers: Dict[Key, ServerConnection] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        # The (remote_ip, remote_port) whose ports the last failed
        # allocation found all taken, and the ports toward it freed since
        # (sorted): while a flood holds every port, allocation picks from
        # those instead of rescanning the whole range per attempt.
        self._exhausted_toward: Optional[Tuple[int, int]] = None
        self._freed_ports: List[int] = []
        # The host MIB's backing dict: the stack counts with plain dict
        # updates (the listener's idiom), a call cheaper per segment.
        self._mib_values = host.mib._values

    # ------------------------------------------------------------------
    # Socket creation
    # ------------------------------------------------------------------
    def listen(self, port: int,
               config: Optional[DefenseConfig] = None) -> ListenSocket:
        if port in self._listeners:
            raise NetworkError(f"port {port} already has a listener")
        listener = ListenSocket(self, port, config)
        self._listeners[port] = listener
        return listener

    def connect(self, remote_ip: int, remote_port: int,
                config: Optional[ClientConnConfig] = None
                ) -> ClientConnection:
        """Active open; the connection's SYN is sent immediately."""
        config = config if config is not None else ClientConnConfig()
        local_port = self._allocate_port(remote_ip, remote_port)
        connection = ClientConnection(self, local_port, remote_ip,
                                      remote_port, config)
        self._clients[(local_port, remote_ip, remote_port)] = connection
        connection.start()
        return connection

    def _allocate_port(self, remote_ip: int, remote_port: int) -> int:
        if self._exhausted_toward == (remote_ip, remote_port):
            # Only the freed ports are free: the scan below would stop at
            # the first of them at or after the cursor, wrapping around.
            freed = self._freed_ports
            if not freed:
                raise PortsExhaustedError("ephemeral port space exhausted")
            index = bisect_left(freed, self._next_ephemeral)
            port = freed.pop(index if index < len(freed) else 0)
            self._next_ephemeral = port + 1
            if self._next_ephemeral >= EPHEMERAL_BASE + EPHEMERAL_SPAN:
                self._next_ephemeral = EPHEMERAL_BASE
            return port
        for _ in range(EPHEMERAL_SPAN):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral >= EPHEMERAL_BASE + EPHEMERAL_SPAN:
                self._next_ephemeral = EPHEMERAL_BASE
            if (port, remote_ip, remote_port) not in self._clients:
                return port
        # A full lap, so the cursor is back where it started.
        self._exhausted_toward = (remote_ip, remote_port)
        self._freed_ports = []
        raise PortsExhaustedError("ephemeral port space exhausted")

    def new_isn(self) -> int:
        return self.host.rng.getrandbits(32)

    # ------------------------------------------------------------------
    # Teardown bookkeeping
    # ------------------------------------------------------------------
    def forget(self, connection: ClientConnection) -> None:
        key = (connection.local_port, connection.remote_ip,
               connection.remote_port)
        if (self._clients.pop(key, None) is not None
                and self._exhausted_toward == key[1:]):
            insort(self._freed_ports, connection.local_port)

    def register_server(self, connection: ServerConnection) -> None:
        key = (connection.local_port, connection.remote_ip,
               connection.remote_port)
        self._servers[key] = connection

    def forget_server(self, connection: ServerConnection) -> None:
        key = (connection.local_port, connection.remote_ip,
               connection.remote_port)
        self._servers.pop(key, None)

    def listener(self, port: int) -> Optional[ListenSocket]:
        return self._listeners.get(port)

    @property
    def open_connections(self) -> int:
        return len(self._clients) + len(self._servers)

    # ------------------------------------------------------------------
    # Demux
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        values = self._mib_values
        values["InSegs"] = values.get("InSegs", 0) + 1
        key = (packet.dst_port, packet.src_ip, packet.src_port)

        server = self._servers.get(key)
        if server is not None:
            server.handle(packet)
            return

        client = self._clients.get(key)
        if client is not None:
            client.handle(packet)
            return

        # Flags are tested as ints: the Packet predicates are properties,
        # a call frame each.
        flags = packet.flags
        listener = self._listeners.get(packet.dst_port)
        if listener is not None:
            if flags & FLAG_SYNACK == FLAG_SYN:
                listener.handle_syn(packet)
                return
            if flags & FLAG_ACK and not flags & FLAG_RST:
                if listener.handle_ack(packet):
                    return
        # RFC 793 catch-all: no matching state -> RST (never RST an RST).
        if not flags & FLAG_RST:
            self._send_rst(packet)

    def _send_rst(self, packet: Packet) -> None:
        values = self._mib_values
        values["OutRsts"] = values.get("OutRsts", 0) + 1
        self.host.send(Packet(self.host.address, packet.src_ip,
                              packet.dst_port, packet.src_port, packet.ack,
                              packet.seq + 1, FLAG_RST))
