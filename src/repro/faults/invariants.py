"""Runtime invariant checker — an engine tap that audits the stack mid-run.

Fault injection is only useful if broken bookkeeping is *caught*, not
averaged away. :class:`InvariantChecker` runs as a periodic engine event
on the server listener and asserts the handshake state machine and queue
accounting after every tick:

* occupancy never exceeds the configured backlog (listen and accept);
* queue flows conserve: every admitted entry is still queued or was
  completed, expired, or reclaimed — nothing leaks, nothing double-counts;
* every live half-open TCB has an armed retransmit timer and is younger
  than the worst-case backoff schedule (no immortal half-opens);
* SYNs conserve: every SYN the MIB counts was answered with a first
  SYN-ACK, a challenge or a cookie, or refused by the listen queue,
  admission control or the syncache — a SYN that no counter accounts
  for means an instrumentation path was missed;
* SYN-cache occupancy respects capacity and its insert/complete/evict/
  expire accounting balances.

A failed check raises :class:`InvariantViolation` carrying the host, the
simulation time, and (when tracing is enabled) the most recent handshake
spans — enough context to replay the offending window. The exception is
picklable so it survives the trip back through a process-pool worker.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ReproError
from repro.tcp.constants import MAX_SYNACK_TIMEOUT

#: Safety factor over the deterministic backoff sum: per-arm jitter is at
#: most ``timeout_scale (<= 1.3) * 1.1 = 1.43``; 1.5 plus a one-second
#: margin absorbs event-ordering slack without masking real leaks.
_LIFETIME_SLACK = 1.5
_LIFETIME_MARGIN = 1.0


def _rebuild_violation(invariant: str, detail: str, host: str,
                       sim_time: float,
                       spans: Tuple[str, ...]) -> "InvariantViolation":
    """Unpickle helper (module-level so pickle can import it)."""
    return InvariantViolation(invariant, detail, host=host,
                              sim_time=sim_time, spans=spans)


class InvariantViolation(ReproError):
    """A runtime invariant failed mid-simulation."""

    def __init__(self, invariant: str, detail: str, host: str = "",
                 sim_time: float = 0.0,
                 spans: Tuple[str, ...] = ()) -> None:
        self.invariant = invariant
        self.detail = detail
        self.host = host
        self.sim_time = sim_time
        self.spans = tuple(spans)
        message = (f"invariant {invariant!r} violated at "
                   f"t={sim_time:.6f}s on {host or '?'}: {detail}")
        if self.spans:
            message += ("\nmost recent handshake spans:\n"
                        + "\n".join(f"  {span}" for span in self.spans))
        super().__init__(message)

    def __reduce__(self):
        # Default pickling would re-call __init__ with the full rendered
        # message as `invariant`; rebuild from the structured fields so a
        # violation raised inside a pool worker arrives intact.
        return (_rebuild_violation,
                (self.invariant, self.detail, self.host, self.sim_time,
                 self.spans))


class InvariantChecker:
    """Periodic engine tap asserting listener/queue invariants.

    ``start()`` schedules a self-rechaining tick every *interval*
    simulation seconds; ``final_check()`` runs once more after the run
    (call it *before* ``engine.drain()`` so timer state is still live).
    """

    def __init__(self, listener, interval: float = 0.25,
                 tracer=None) -> None:
        self.listener = listener
        self.engine = listener.host.engine
        self.interval = interval
        self.tracer = tracer
        self.checks_run = 0
        self._timer = None
        config = listener.config
        backoff_sum = sum(
            min(config.synack_timeout * (2 ** i), MAX_SYNACK_TIMEOUT)
            for i in range(config.synack_retries + 1))
        self.max_half_open_lifetime = (
            _LIFETIME_SLACK * backoff_sum + _LIFETIME_MARGIN)
        self._checks = (
            ("listen-occupancy", self._check_listen_occupancy),
            ("accept-occupancy", self._check_accept_occupancy),
            ("listen-conservation", self._check_listen_conservation),
            ("accept-conservation", self._check_accept_conservation),
            ("half-open-timers", self._check_half_open_timers),
            ("half-open-lifetime", self._check_half_open_lifetime),
            ("syn-conservation", self._check_syn_conservation),
            ("syncache-accounting", self._check_syncache),
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.interval <= 0:
            return
        self._timer = self.engine.schedule(self.interval, self._tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        self.check_now()
        self._timer = self.engine.schedule(self.interval, self._tick)

    # ------------------------------------------------------------------
    def check_now(self) -> None:
        """Run every invariant once; raises on the first failure."""
        self.checks_run += 1
        for name, check in self._checks:
            problem = check()
            if problem is not None:
                raise InvariantViolation(
                    name, problem, host=self.listener.host.name,
                    sim_time=self.engine.now, spans=self._recent_spans())

    def final_check(self) -> None:
        """One last audit at end of run (before the engine drains)."""
        self.stop()
        self.check_now()

    # ------------------------------------------------------------------
    def _recent_spans(self) -> Tuple[str, ...]:
        tracer = self.tracer
        if tracer is None or not getattr(tracer, "enabled", False):
            return ()
        from repro.obs.spans import build_spans

        rendered: List[str] = []
        for span in build_spans(tracer)[-3:]:
            phases = ", ".join(p.name for p in span.phases) or "-"
            rendered.append(
                f"flow={span.flow} outcome={span.outcome} "
                f"t=[{span.start:.6f}, {span.end:.6f}] phases: {phases}")
        return tuple(rendered)

    # ------------------------------------------------------------------
    def _check_listen_occupancy(self) -> Optional[str]:
        queue = self.listener.listen_queue
        if len(queue) > queue.backlog:
            return (f"listen queue holds {len(queue)} entries, "
                    f"backlog is {queue.backlog}")
        return None

    def _check_accept_occupancy(self) -> Optional[str]:
        queue = self.listener.accept_queue
        if len(queue) > queue.backlog:
            return (f"accept queue holds {len(queue)} entries, "
                    f"backlog is {queue.backlog}")
        return None

    def _check_listen_conservation(self) -> Optional[str]:
        queue = self.listener.listen_queue
        accounted = (queue.completed + queue.expired
                     + queue.pressure_evicted + len(queue))
        if queue.admitted != accounted:
            return (f"admitted {queue.admitted} != completed "
                    f"{queue.completed} + expired {queue.expired} + "
                    f"reclaimed {queue.pressure_evicted} + live "
                    f"{len(queue)}")
        return None

    def _check_accept_conservation(self) -> Optional[str]:
        queue = self.listener.accept_queue
        accounted = (queue.accepted + queue.pressure_evicted + len(queue))
        if queue.enqueued != accounted:
            return (f"enqueued {queue.enqueued} != accepted "
                    f"{queue.accepted} + reclaimed "
                    f"{queue.pressure_evicted} + live {len(queue)}")
        return None

    def _check_half_open_timers(self) -> Optional[str]:
        for tcb in self.listener.listen_queue.values():
            timer = tcb.timer
            if timer is None or getattr(timer, "cancelled", False):
                return (f"half-open {tcb.flow} has no armed SYN-ACK "
                        f"retransmit timer (it would never expire)")
        return None

    def _check_half_open_lifetime(self) -> Optional[str]:
        now = self.engine.now
        bound = self.max_half_open_lifetime
        for tcb in self.listener.listen_queue.values():
            age = now - tcb.created_at
            if age > bound:
                return (f"half-open {tcb.flow} is {age:.3f}s old, "
                        f"worst-case backoff schedule allows "
                        f"{bound:.3f}s — leaked TCB")
        return None

    def _check_syn_conservation(self) -> Optional[str]:
        mib = self.listener.mib
        answered = (mib["SynAcksSent"] - mib["SynAckRetrans"]
                    + mib["PuzzlesIssued"] + mib["SynCookiesSent"])
        refused = (mib["ListenOverflows"] + mib["AdmissionDrops"]
                   + mib["SynCacheRejects"])
        if mib["SynsRecv"] != answered + refused:
            return (f"SynsRecv = {mib['SynsRecv']} but {answered} were "
                    f"answered and {refused} refused — an instrumentation "
                    f"site was missed")
        return None

    def _check_syncache(self) -> Optional[str]:
        cache = self.listener.config.syncache
        if cache is None:
            return None
        live = len(cache)
        recount = cache.occupancy_recount()
        if live != recount:
            return (f"syncache incremental occupancy {live} != bucket "
                    f"recount {recount} — the O(1) len drifted")
        if live > cache.capacity:
            return (f"syncache holds {live} records, capacity is "
                    f"{cache.capacity}")
        if live > cache.max_entries:
            return (f"syncache holds {live} records, memory budget "
                    f"allows {cache.max_entries}")
        accounted = (cache.completions + cache.evictions + cache.expired
                     + live)
        if cache.insertions != accounted:
            return (f"syncache insertions {cache.insertions} != "
                    f"completions {cache.completions} + evictions "
                    f"{cache.evictions} + expired {cache.expired} + "
                    f"live {live}")
        lifetime = cache.lifetime
        if lifetime:
            oldest = cache.oldest_created_at()
            # Entries overstay by at most one reaper sweep (lifetime/4).
            bound = lifetime * 1.25 + _LIFETIME_MARGIN
            if oldest is not None and self.engine.now - oldest > bound:
                return (f"syncache record is {self.engine.now - oldest:.3f}s "
                        f"old, lifetime bound is {bound:.3f}s — the "
                        f"reaper is not running")
        return None
