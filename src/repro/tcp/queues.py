"""The listen (half-open) and accept (established) queues.

These two bounded structures are the attack surface: a SYN flood aims to
fill the listen queue with half-open state; a connection flood aims to fill
the accept queue with completed handshakes (§2.1). Both expose occupancy
for the Figure 10 measurements and the conservation counters the invariant
checker audits; the listener books every refusal in the host MIB.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import SimulationError
from repro.tcp.tcb import HalfOpenTCB

if TYPE_CHECKING:  # pragma: no cover
    from repro.tcp.connection import ServerConnection

Flow = Tuple[int, int, int]  # (remote_ip, remote_port, local_port)


class ListenQueue:
    """Bounded half-open connection table, insertion-ordered.

    Keyed by flow for O(1) completion on ACK; ordered for oldest-first
    reaping. ``backlog`` bounds the element count, mirroring the listen
    backlog parameter that bounds kernel memory (§2.1).
    """

    def __init__(self, backlog: int) -> None:
        if backlog < 1:
            raise SimulationError(f"backlog must be >= 1, got {backlog}")
        self.backlog = backlog
        self._table: "OrderedDict[Flow, HalfOpenTCB]" = OrderedDict()
        self.expired = 0           # half-opens reaped after retry exhaustion
        self.completed = 0         # half-opens promoted to ESTABLISHED
        self.admitted = 0          # half-opens actually inserted
        self.pressure_evicted = 0  # reclaimed by injected memory pressure

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, flow: Flow) -> bool:
        return flow in self._table

    @property
    def full(self) -> bool:
        return len(self._table) >= self.backlog

    def get(self, flow: Flow) -> Optional[HalfOpenTCB]:
        return self._table.get(flow)

    def try_add(self, tcb: HalfOpenTCB) -> bool:
        """Insert a half-open TCB; False when the queue is full."""
        if tcb.flow in self._table:
            # Retransmitted SYN for an existing half-open: not a new
            # entry — recognised even when the queue is full, as a real
            # stack's reqsk lookup would.
            return True
        if self.full:
            return False
        self._table[tcb.flow] = tcb
        self.admitted += 1
        return True

    def complete(self, flow: Flow) -> Optional[HalfOpenTCB]:
        """Remove and return the half-open entry for a completing ACK."""
        tcb = self._table.pop(flow, None)
        if tcb is not None:
            tcb.cancel_timer()
            # The backoff schedule is per-handshake: a retransmission
            # count carried past completion would inflate the timeout of
            # any code path that reuses the TCB.
            tcb.retransmits = 0
            self.completed += 1
        return tcb

    def expire(self, flow: Flow) -> Optional[HalfOpenTCB]:
        """Reap a half-open entry whose retransmissions were exhausted."""
        tcb = self._table.pop(flow, None)
        if tcb is not None:
            tcb.cancel_timer()
            self.expired += 1
        return tcb

    def resize(self, backlog: int) -> List[HalfOpenTCB]:
        """Change the backlog bound, evicting oldest-first on shrink.

        Models memory-pressure reclaim (``tcp_syn_retries`` pruning under
        ``tcp_mem`` pressure): entries beyond the new bound are reaped
        immediately, their timers cancelled. Returns the evicted TCBs,
        oldest first, so the caller can book each failed handshake.
        """
        if backlog < 1:
            raise SimulationError(f"backlog must be >= 1, got {backlog}")
        evicted = []
        while len(self._table) > backlog:
            _, tcb = self._table.popitem(last=False)
            tcb.cancel_timer()
            evicted.append(tcb)
        self.pressure_evicted += len(evicted)
        self.backlog = backlog
        return evicted

    def values(self) -> Iterator[HalfOpenTCB]:
        return iter(self._table.values())

    def clear(self) -> None:
        for tcb in self._table.values():
            tcb.cancel_timer()
        self._table.clear()


class AcceptQueue:
    """Bounded FIFO of established connections awaiting ``accept()``."""

    def __init__(self, backlog: int) -> None:
        if backlog < 1:
            raise SimulationError(f"backlog must be >= 1, got {backlog}")
        self.backlog = backlog
        self._queue: Deque["ServerConnection"] = deque()
        self.enqueued = 0
        self.accepted = 0
        self.pressure_evicted = 0  # reclaimed by injected memory pressure

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        return len(self._queue) >= self.backlog

    def try_add(self, connection: "ServerConnection") -> bool:
        """Enqueue an established connection; False when full."""
        if self.full:
            return False
        self._queue.append(connection)
        self.enqueued += 1
        return True

    def pop(self) -> Optional["ServerConnection"]:
        """Dequeue the oldest established connection (app ``accept()``)."""
        if not self._queue:
            return None
        self.accepted += 1
        return self._queue.popleft()

    def resize(self, backlog: int) -> List["ServerConnection"]:
        """Change the backlog bound; returns connections evicted on shrink.

        Newest entries go first — they are the ones the application has
        never seen, so shedding them is the least-surprising reclaim. The
        caller must deregister the returned connections from the stack.
        """
        if backlog < 1:
            raise SimulationError(f"backlog must be >= 1, got {backlog}")
        evicted = []
        while len(self._queue) > backlog:
            evicted.append(self._queue.pop())
        self.pressure_evicted += len(evicted)
        self.backlog = backlog
        return evicted

    def clear(self) -> None:
        self._queue.clear()
