"""The listening socket and its opportunistic protection controller (§5).

Behavioural contract, straight from the paper:

* Challenges (and cookies) are **off** during normal operation; the stock
  three-way handshake with half-open state runs while the queues have room.
* Protection engages when a queue fills. Puzzles take precedence over
  cookies; with ``DefenseMode.PUZZLES`` the socket sends a challenge even
  when the *accept* queue is the one overflowing — throttling everyone
  rather than silently refusing.
* On an ACK carrying a solution: if the accept queue is full the ACK is
  **ignored** (the sender is left believing it connected; data it sends
  later is RST — the deception mechanism); otherwise the solution is
  verified statelessly and, only if valid, state is created directly in the
  accept queue.
* ``k`` and ``m`` are dynamically tunable (:meth:`ListenSocket.set_difficulty`
  mirrors the kernel's sysctl interface).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import NetworkError
from repro.net.floodpath import (MSS_SYNACK_SIZE, challenge_synack_size,
                                 plain_synack_size)
from repro.net.packet import (FLAG_SYNACK, Packet, TCPOptions,
                              mss_options)
from repro.puzzles.juels import (Challenge, FlowBinding,
                                 JuelsBrainardScheme, VerifyStatus,
                                 issue_timestamp_ms)
from repro.puzzles.params import PuzzleParams
from repro.tcp.constants import (
    DEFAULT_ACCEPT_BACKLOG,
    DEFAULT_BACKLOG,
    DEFAULT_MSS,
    DEFAULT_SYNACK_RETRIES,
    DEFAULT_SYNACK_TIMEOUT,
    MAX_SYNACK_TIMEOUT,
    DefenseMode,
)
from repro.tcp.connection import ServerConnection
from repro.tcp.fairness import FairQueuingPolicy
from repro.tcp.queues import AcceptQueue, ListenQueue
from repro.tcp.syncache import CacheEntry, SynCache
from repro.tcp.syncookies import fallback_codec
from repro.tcp.tcb import EstablishPath, HalfOpenTCB

if TYPE_CHECKING:  # pragma: no cover
    from repro.tcp.stack import TCPStack

# The defense modes and establishment paths tested on every SYN and every
# completing ACK, as module globals: on CPython 3.11 reading a member off
# the Enum class goes through its metaclass and costs about as much as a
# call frame.
_NO_DEFENSE = DefenseMode.NONE
_PUZZLES = DefenseMode.PUZZLES
_SYNCACHE = DefenseMode.SYNCACHE
_SYNCOOKIES = DefenseMode.SYNCOOKIES
_VIA_NORMAL = EstablishPath.NORMAL
_VIA_COOKIE = EstablishPath.COOKIE
_VIA_PUZZLE = EstablishPath.PUZZLE
_VIA_SYNCACHE = EstablishPath.SYNCACHE
#: Refusal causes that are failed puzzle solutions, which the attribution
#: sketch also tallies per source.
_PUZZLE_FAILURES = ("PuzzlesRejected", "ReplaysBlocked")


@dataclass
class DefenseConfig:
    """Server-side defense configuration (the sysctl surface)."""

    mode: DefenseMode = DefenseMode.NONE
    puzzle_params: PuzzleParams = field(
        default_factory=lambda: PuzzleParams(k=2, m=17))
    scheme: Optional[JuelsBrainardScheme] = None
    backlog: int = DEFAULT_BACKLOG
    accept_backlog: int = DEFAULT_ACCEPT_BACKLOG
    synack_timeout: float = DEFAULT_SYNACK_TIMEOUT
    synack_retries: int = DEFAULT_SYNACK_RETRIES
    syncache: Optional[SynCache] = None
    #: Challenge every SYN regardless of queue pressure. Used by the
    #: Figure 6 connection-time measurements and the controller ablation;
    #: the paper's deployed configuration is opportunistic (False).
    always_challenge: bool = False
    #: Puzzle Fair Queuing (§7 extension): per-source difficulty
    #: escalation. None = the paper's uniform pricing.
    fairness: Optional["FairQueuingPolicy"] = None
    #: Seconds the *ACK discipline* (plain completions refused, §5's
    #: verify-only rule) outlives the last queue-full observation. The
    #: challenge trigger stays instantaneous — challenging SYNs only while
    #: a queue is exactly full preserves the stranded-half-open supply
    #: that locks the listen queue — but the completion rule must ride
    #: through the sub-millisecond occupancy dips that expiry and
    #: completion churn create, or in-flight plain ACKs chain through the
    #: transient gaps at the accept-drain rate (see DESIGN.md).
    ack_discipline_hold: float = 2.0
    #: Syncache occupancy fraction at which the listener stops inserting
    #: and serves stateless cookies instead (the FreeBSD-style overload
    #: fallback). ``None`` (the default) disables the fallback rung
    #: entirely — the cache churns exactly as the paper describes.
    syncache_high_watermark: Optional[float] = None
    #: Occupancy fraction below which cache service re-arms. The gap to
    #: the high watermark is the hysteresis band that keeps the listener
    #: from flapping between cache and cookie service every few SYNs.
    syncache_low_watermark: float = 0.60


@dataclass
class ListenerStats:
    """Counters behind Figures 7–11's per-path analysis.

    A view of the host MIB, which is the one book of handshake outcomes:
    :meth:`from_counters` builds it, and :attr:`ListenSocket.stats`
    reads it off the listener's host. A new establishment path adds an
    ``Estab*`` counter and its field here.
    """

    syns_received: int = 0
    synacks_plain: int = 0           # SYN-ACK without challenge/cookie
    synacks_challenge: int = 0       # SYN-ACK carrying a challenge
    synacks_cookie: int = 0
    #: Cookies served *because* the syncache crossed its high watermark
    #: (counted in addition to synacks_cookie, which covers all cookies).
    synacks_cookie_fallback: int = 0
    #: SYNs refused by the token-bucket admission control rung.
    syns_rejected_admission: int = 0
    syn_drops_queue_full: int = 0    # nodefense: SYN dropped, queue full
    established_normal: int = 0
    established_cookie: int = 0
    established_puzzle: int = 0
    established_syncache: int = 0
    acks_ignored_queue_full: int = 0  # the §5 deception path
    solutions_invalid: int = 0
    cookies_invalid: int = 0
    accept_drops_full: int = 0
    half_open_expired: int = 0

    @classmethod
    def from_counters(cls, counters) -> "ListenerStats":
        """The statistics a host MIB holds, field by field.

        *counters* is a live :class:`~repro.obs.counters.CounterScope` or
        a snapshot dict (whose ``get`` returns None for an untouched
        counter). Each field sums the counters it is named against.
        """
        return cls(**{
            field_name: sum(counters.get(name) or 0 for name in names)
            for field_name, names in (
                ("syns_received", ("SynsRecv",)),
                ("synacks_plain", ("SynAcksSent",)),
                ("synacks_challenge", ("PuzzlesIssued",)),
                ("synacks_cookie", ("SynCookiesSent",)),
                ("synacks_cookie_fallback", ("SynCacheCookieFallback",)),
                ("syns_rejected_admission", ("AdmissionDrops",)),
                ("syn_drops_queue_full", ("ListenOverflows",)),
                ("established_normal", ("EstabNormal",)),
                ("established_cookie", ("EstabCookie",)),
                ("established_puzzle", ("EstabPuzzle",)),
                ("established_syncache", ("EstabSynCache",)),
                ("acks_ignored_queue_full", ("DeceptionAcksIgnored",)),
                ("solutions_invalid", ("PuzzlesRejected", "ReplaysBlocked",
                                       "PlainAcksIgnored")),
                ("cookies_invalid", ("SynCookiesFailed",)),
                ("accept_drops_full", ("AcceptOverflows",)),
                ("half_open_expired", ("HalfOpenExpired",)),
            )})

    def established_total(self) -> int:
        return (self.established_normal + self.established_cookie
                + self.established_puzzle + self.established_syncache)


def _challenge_options(params: PuzzleParams, preimage: bytes, now: float,
                       syn: Packet) -> TCPOptions:
    """Option block of a materialized challenge SYN-ACK answering *syn*:
    the pre-image issued at *now*, bound to the SYN's flow."""
    binding = FlowBinding(src_ip=syn.src_ip, dst_ip=syn.dst_ip,
                          src_port=syn.src_port, dst_port=syn.dst_port,
                          isn=syn.seq)
    return TCPOptions(mss=DEFAULT_MSS, challenge=Challenge(
        params=params, preimage=preimage,
        issued_at_ms=issue_timestamp_ms(now), binding=binding))


class ListenSocket:
    """A passive-open socket with pluggable state-exhaustion defenses.

    Every SYN-ACK kind has one issue path that does its side effects once
    (hash, CPU charge, MIB, tracer, ISN draw) and then calls
    :meth:`_reply`, the one place that decides between the compiled
    fast path and a materialized packet. Every refusal goes through
    :meth:`_refuse`, which books its drop cause.
    """

    def __init__(self, stack: "TCPStack", port: int,
                 config: Optional[DefenseConfig] = None) -> None:
        self.stack = stack
        self.host = stack.host
        self.port = port
        self.config = config if config is not None else DefenseConfig()
        self.listen_queue = ListenQueue(self.config.backlog)
        self.accept_queue = AcceptQueue(self.config.accept_backlog)
        # The queues' containers are created once and never swapped
        # (resize mutates them in place), so the per-SYN fullness probes
        # can be plain len() calls instead of property frames. ``backlog``
        # is still read live — fault injectors retune it mid-run.
        self._lq_table = self.listen_queue._table
        self._aq_queue = self.accept_queue._queue
        # Observability: SNMP counters land in the host's MIB scope, and
        # handshake tracepoints go to the engine-wide tracer (default off).
        self.mib = self.host.mib
        self._mib_incr = self.mib.incr  # bound once: hot on every SYN
        self._mib_values = self.mib._values  # ...and the flood-rate
        # counters skip even that frame with plain dict updates.
        self._tracer = self.host.obs.tracer
        #: Optional bounded-memory per-source attribution
        #: (:class:`repro.obs.sketch.SourceAttribution`). None (the
        #: default) keeps every emit site a single attribute test.
        self.attribution = None
        #: Optional graceful-degradation rungs (:mod:`repro.tcp.overload`):
        #: the front-door SYN rate limiter and the state-machine watchdog.
        #: Both default to None so every emit site stays one attribute
        #: test and detached runs are byte-identical.
        self.admission = None
        self.watchdog = None
        # Syncookie-fallback hysteresis latch: set when syncache occupancy
        # crosses the high watermark, cleared below the low watermark.
        self._fallback_engaged = False
        if self.config.scheme is None:
            self.config.scheme = JuelsBrainardScheme()
        self._cookie_codec = fallback_codec(
            self.config.scheme.secret.current)
        if (self.config.mode is DefenseMode.SYNCACHE
                and self.config.syncache is None):
            self.config.syncache = SynCache()
        self._syncache_reaper = None
        if self.config.syncache is not None:
            self.config.syncache.counters = self.mib
            if self.config.syncache.lifetime is not None:
                self._arm_syncache_reaper()
        self._attack_until = 0.0
        # The compiled path for blackholed SYN-ACKs (see
        # repro.net.floodpath); resolved lazily on first use. None =
        # unresolved, False = unavailable (compiled core not adopted, or
        # the host has no fabric to shortcut through).
        self._fast_reply = None
        # (params, on-wire size) of the last challenge SYN-ACK shape —
        # fairness policies swap params per source, so key by identity.
        self._challenge_size = None
        #: Called whenever a connection lands in the accept queue.
        self.on_acceptable: Optional[Callable[[], None]] = None
        #: Observability hook: (remote_ip, path) on every establishment —
        #: how experiments measure the server-side effective attack rate.
        self.on_established_hook: Optional[
            Callable[[int, EstablishPath], None]] = None

    @property
    def stats(self) -> ListenerStats:
        """Handshake outcomes read off the host MIB: host-wide counts,
        as ``netstat -s`` reports them."""
        return ListenerStats.from_counters(self.mib)

    # ------------------------------------------------------------------
    # Refusals
    # ------------------------------------------------------------------
    def _refuse(self, cause: str, src_ip: int, src_port: int, event: str,
                **detail) -> None:
        """Book one refused handshake event: its ``DROP_CAUSES`` counter,
        the attribution sketch, and the *event* tracepoint (the flow
        tuple is built only while the tracer is on)."""
        values = self._mib_values
        values[cause] = values.get(cause, 0) + 1
        attribution = self.attribution
        if attribution is not None:
            attribution.on_drop(src_ip, cause)
            if cause in _PUZZLE_FAILURES:
                attribution.on_puzzle_failure(src_ip)
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.host.engine.now, self.host.name, event,
                        (src_ip, src_port, self.port), **detail)

    # ------------------------------------------------------------------
    # sysctl-style tuning
    # ------------------------------------------------------------------
    def set_difficulty(self, k: int, m: int) -> None:
        """Dynamically retune (k, m) — the kernel patch's sysctl knobs."""
        old = self.config.puzzle_params
        self.config.puzzle_params = PuzzleParams(
            k=k, m=m, length_bytes=old.length_bytes)

    # ------------------------------------------------------------------
    # Controller predicates
    # ------------------------------------------------------------------
    @property
    def protection_active(self) -> bool:
        """Opportunistic challenge trigger: any *currently* full queue.

        Deliberately instantaneous (the paper's "enabled when the
        socket's queue is full"): SYNs arriving in momentary openings take
        the stock path, which is what keeps the listen queue supplied
        with strandable half-opens during an attack. With puzzles, every
        such observation refreshes the sticky attack window.
        """
        config = self.config
        mode = config.mode
        # The queue-full probes are plain len() calls on the queues'
        # containers (see __init__): handle_syn asks on every SYN.
        if mode is _PUZZLES:
            if (config.always_challenge
                    or len(self._lq_table) >= self.listen_queue.backlog
                    or len(self._aq_queue) >= self.accept_queue.backlog):
                self._attack_until = (self.host.engine.now
                                      + config.ack_discipline_hold)
                return True
            return False
        # Cookies/cache engage on listen-queue pressure only (stock Linux).
        return (mode is not _NO_DEFENSE
                and len(self._lq_table) >= self.listen_queue.backlog)

    @property
    def under_attack(self) -> bool:
        """Sticky attack state gating the ACK discipline (§5's "while
        under attack ... only performs the verification procedure").

        Refreshed by every queue-full observation; survives the
        sub-millisecond occupancy dips between an expiry/completion and
        the flood's refill — the window through which in-flight plain
        ACKs would otherwise cascade (completion opens a slot, the refill
        SYN's own ACK completes through another completion's gap, ad
        infinitum at the drain rate).
        """
        if self.protection_active:
            return True
        if self.config.mode is not _PUZZLES:
            return False
        return self.host.engine.now < self._attack_until

    # ------------------------------------------------------------------
    # SYN handling
    # ------------------------------------------------------------------
    def handle_syn(self, packet: Packet) -> None:
        values = self._mib_values
        values["SynsRecv"] = values.get("SynsRecv", 0) + 1
        if self.attribution is not None:
            self.attribution.on_syn(packet.src_ip)
        # Tracer guard inlined: when tracing is off (the default) this
        # skips building the flow tuple for every SYN.
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.host.engine.now, self.host.name, "syn-in",
                        (packet.src_ip, packet.src_port, self.port))
        if self.admission is not None and not self.admission.admit(
                packet.src_ip, self.host.engine.now):
            # Degradation-ladder front door: over-rate SYNs are shed
            # before any state, hash, or reply is spent on them.
            self._refuse("AdmissionDrops", packet.src_ip, packet.src_port,
                         "drop", reason="admission")
            return
        mode = self.config.mode
        if mode is _SYNCACHE:
            self._syncache_insert(packet)
            return
        # Without a defense there is no trigger to ask: skip its frame.
        if mode is not _NO_DEFENSE and self.protection_active:
            if mode is _PUZZLES:
                self._send_challenge(packet)
            else:
                self._send_cookie_synack(packet)
            return

        # Stock path: allocate half-open state if the backlog allows.
        if len(self._lq_table) >= self.listen_queue.backlog:
            self._refuse("ListenOverflows", packet.src_ip, packet.src_port,
                         "drop", reason="listen-overflow")
            return
        self._stock_half_open(packet)

    def _stock_half_open(self, packet: Packet) -> None:
        flow = (packet.src_ip, packet.src_port, self.port)
        existing = self.listen_queue.get(flow)
        if existing is not None:
            self._send_plain_synack(
                existing.remote_ip, existing.remote_port,
                existing.local_isn, existing.remote_isn, existing.wscale,
                existing.retransmits)
            return
        tcb = HalfOpenTCB(
            remote_ip=packet.src_ip, remote_port=packet.src_port,
            local_port=self.port, remote_isn=packet.seq,
            local_isn=self.stack.new_isn(),
            mss=packet.options.mss or DEFAULT_MSS,
            wscale=packet.options.wscale,
            created_at=self.host.engine.now,
            timeout_scale=self.host.rng.uniform(0.7, 1.3))
        # handle_syn refused the SYN if the queue was full.
        self.listen_queue.try_add(tcb)
        self._send_plain_synack(tcb.remote_ip, tcb.remote_port,
                                tcb.local_isn, tcb.remote_isn, tcb.wscale,
                                tcb.retransmits)
        self._arm_synack_timer(tcb)

    def _resolve_fast_reply(self):
        """Resolve (once) the compiled path for blackholed replies.

        Returns the compiled ``ReplyFastPath`` (see
        :mod:`repro.net.floodpath`), or ``False`` when this host cannot
        use one (compiled core not adopted, a bare test host without a
        fabric, or a host the topology cannot route an uplink for)."""
        network = getattr(self.host, "network", None)
        fast = None
        if network is not None:
            try:
                fast = network.reply_fast_path(self.host)
            except NetworkError:
                fast = None
        fast = fast if fast is not None else False
        self._fast_reply = fast
        return fast

    def _reply(self, size: int, dst_ip: int, dst_port: int, seq: int,
               ack: int, options: Callable[..., TCPOptions],
               args: tuple) -> None:
        """Send one SYN-ACK of *size* on-wire bytes, once its kind's side
        effects are done: the compiled path's ``send(size, dst_ip,
        dst_port)`` folds just the bytes toward a spoofed peer, and when
        it declines (returns False, see :mod:`repro.net.floodpath`) the
        packet is built here, with ``options(*args)`` as its option
        block, and sent."""
        fast = self._fast_reply
        if fast is None:
            fast = self._resolve_fast_reply()
        if fast is not False and fast.send(size, dst_ip, dst_port):
            return
        self.host.send(Packet(self.host.address, dst_ip, self.port,
                              dst_port, seq, ack, FLAG_SYNACK,
                              options(*args)))

    def _send_plain_synack(self, remote_ip: int, remote_port: int,
                           local_isn: int, remote_isn: int, wscale,
                           retransmits: int) -> None:
        self._mib_incr("SynAcksSent")
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.host.engine.now, self.host.name, "synack-out",
                        (remote_ip, remote_port, self.port),
                        retrans=retransmits)
        self._reply(plain_synack_size(wscale), remote_ip, remote_port,
                    local_isn, remote_isn + 1, TCPOptions,
                    (DEFAULT_MSS, wscale))

    def _arm_synack_timer(self, tcb: HalfOpenTCB) -> None:
        # Per-step ±10% jitter (timer wheel) on top of the entry's own
        # lifetime scale (see HalfOpenTCB.timeout_scale): together they
        # spread a burst-created cohort's expiries over tens of seconds,
        # so the listen queue's strand lock erodes as a trickle of
        # individually-refilled openings instead of periodic mass waves.
        jitter = tcb.timeout_scale * self.host.rng.uniform(0.9, 1.1)
        # Exponential backoff clamped at MAX_SYNACK_TIMEOUT (TCP_RTO_MAX):
        # past the cap every further retry waits the cap, not 2x more.
        base = min(self.config.synack_timeout * (2 ** tcb.retransmits),
                   MAX_SYNACK_TIMEOUT)
        tcb.timer = self.host.engine.schedule(
            base * jitter, self._synack_timeout, tcb)

    def _synack_timeout(self, tcb: HalfOpenTCB) -> None:
        if self.listen_queue.get(tcb.flow) is not tcb:
            return  # completed or already reaped
        if tcb.retransmits >= self.config.synack_retries:
            self.listen_queue.expire(tcb.flow)
            self._refuse("HalfOpenExpired", tcb.remote_ip, tcb.remote_port,
                         "expire", retrans=tcb.retransmits)
            return
        tcb.retransmits += 1
        self._mib_incr("SynAckRetrans")
        self._send_plain_synack(tcb.remote_ip, tcb.remote_port,
                                tcb.local_isn, tcb.remote_isn, tcb.wscale,
                                tcb.retransmits)
        self._arm_synack_timer(tcb)

    def _arm_syncache_reaper(self) -> None:
        # Rotating stripe sweep: each timer-wheel tick reaps one stripe
        # of buckets, and every stripe is visited once per quarter
        # lifetime — so entries overstay by at most lifetime/4 (within
        # the invariant checker's bound) while each tick touches only
        # buckets/stripes buckets instead of stalling on the whole table.
        cache = self.config.syncache
        interval = cache.lifetime / (4.0 * cache.shard_count)
        self._reap_shard = 0
        self._syncache_reaper = self.host.engine.schedule(
            interval, self._syncache_reap, interval)

    def _syncache_reap(self, interval: float) -> None:
        cache = self.config.syncache
        cutoff = self.host.engine.now - cache.lifetime
        cache.expire_shard_older_than(self._reap_shard, cutoff)
        self._reap_shard = (self._reap_shard + 1) % cache.shard_count
        self._syncache_reaper = self.host.engine.schedule(
            interval, self._syncache_reap, interval)

    def _send_challenge(self, packet: Packet) -> None:
        config = self.config
        host = self.host
        params = config.puzzle_params
        if config.fairness is not None:
            params = config.fairness.difficulty_for(
                packet.src_ip, host.engine.now)
        # Timestamp reads go through the host's wall-clock view (engine
        # time plus injected skew) — timers elsewhere stay monotonic.
        now = host.now
        preimage = config.scheme.issue_preimage(
            params, packet.src_ip, packet.dst_ip, packet.src_port,
            packet.dst_port, packet.seq, now, counter=host.hash_counter)
        host.cpu.consume(1)  # g(p) = 1 hash of server CPU time
        values = self._mib_values
        values["PuzzlesIssued"] = values.get("PuzzlesIssued", 0) + 1
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(host.engine.now, host.name, "challenge-out",
                        (packet.src_ip, packet.src_port, self.port),
                        k=params.k, m=params.m)
        # stack.new_isn() inlined — the same single getrandbits(32) draw,
        # minus a frame per challenge.
        isn = host.rng.getrandbits(32)
        size = self._challenge_size
        if size is None or size[0] is not params:
            size = (params, challenge_synack_size(params))
            self._challenge_size = size
        self._reply(size[1], packet.src_ip, packet.src_port, isn,
                    packet.seq + 1, _challenge_options,
                    (params, preimage, now, packet))

    def _send_cookie_synack(self, packet: Packet) -> None:
        cookie = self._cookie_codec.encode(
            self.host.now, packet.src_ip, packet.src_port,
            self.port, packet.seq, packet.options.mss or DEFAULT_MSS)
        values = self._mib_values
        values["SynCookiesSent"] = values.get("SynCookiesSent", 0) + 1
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.host.engine.now, self.host.name, "cookie-out",
                        (packet.src_ip, packet.src_port, self.port))
        # wscale is lost with cookies; the MSS-only shape is interned.
        self._reply(MSS_SYNACK_SIZE, packet.src_ip, packet.src_port, cookie,
                    packet.seq + 1, mss_options, (DEFAULT_MSS,))

    def _syncache_insert(self, packet: Packet) -> None:
        config = self.config
        cache = config.syncache
        if config.syncache_high_watermark is not None:
            # FreeBSD-style overload fallback with hysteresis: above the
            # high watermark the listener stops inserting and serves
            # stateless cookies; cache service re-arms only once
            # occupancy has drained below the low watermark.
            occupancy = cache.occupancy_fraction
            if self._fallback_engaged:
                if occupancy <= config.syncache_low_watermark:
                    self._fallback_engaged = False
            elif occupancy >= config.syncache_high_watermark:
                self._fallback_engaged = True
            if self._fallback_engaged:
                self._mib_incr("SynCacheCookieFallback")
                self._send_cookie_synack(packet)
                return
        entry = CacheEntry(
            flow=(packet.src_ip, packet.src_port, self.port),
            remote_isn=packet.seq, local_isn=self.stack.new_isn(),
            mss=packet.options.mss or DEFAULT_MSS,
            wscale=packet.options.wscale,
            created_at=self.host.engine.now)
        if not cache.insert(entry):
            # reject-new policy: no record, no SYN-ACK — the client
            # retries into (hopefully) a less loaded cache.
            self._refuse("SynCacheRejects", packet.src_ip, packet.src_port,
                         "drop", reason="syncache-reject")
            return
        self._send_plain_synack(packet.src_ip, packet.src_port,
                                entry.local_isn, packet.seq, entry.wscale, 0)

    # ------------------------------------------------------------------
    # ACK handling
    # ------------------------------------------------------------------
    def handle_ack(self, packet: Packet) -> bool:
        """Process a handshake-completing ACK; False → caller sends RST.

        §5 semantics: while the protection is in effect every completing
        ACK goes through the verification procedure — a plain ACK cannot
        complete **even an existing half-open**. This is what keeps the
        listen queue saturated with stranded half-opens during an attack
        (Figure 10) and limits attackers to the solving path.
        """
        flow = (packet.src_ip, packet.src_port, self.port)
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.host.engine.now, self.host.name, "ack-in",
                        flow,
                        solution=packet.options.solution is not None,
                        payload=packet.payload_bytes)

        mode = self.config.mode
        tcb = self.listen_queue.get(flow)
        if tcb is not None:
            if (mode is _PUZZLES
                    and self.under_attack
                    and packet.options.solution is None):
                # Under attack, unverified completions are ignored; the
                # half-open is left stranded until its timer reaps it.
                self._refuse("DeceptionAcksIgnored", packet.src_ip,
                             packet.src_port, "ignore",
                             reason="plain-ack-under-attack")
                return True
            return self._complete_stock(tcb)

        if packet.options.solution is not None and mode is _PUZZLES:
            return self._complete_puzzle(packet)

        if mode is _SYNCACHE:
            entry = self.config.syncache.complete(flow)
            if entry is not None:
                return self._install_tcb(packet.src_ip, packet.src_port,
                                         _VIA_SYNCACHE, entry.mss,
                                         entry.wscale)
            # Fallback rung armed: this ACK may answer a cookie the
            # overloaded cache served instead of a record. Validate
            # statelessly before declaring a miss.
            if (self.config.syncache_high_watermark is not None
                    and self._complete_cookie(packet)):
                return True
            self._refuse("SynCacheMisses", packet.src_ip, packet.src_port,
                         "reject", reason="syncache-miss")
            return False

        if mode is _SYNCOOKIES:
            if self._complete_cookie(packet):
                return True
            self._refuse("SynCookiesFailed", packet.src_ip, packet.src_port,
                         "reject", reason="bad-cookie")
            return False

        if (mode is _PUZZLES and packet.payload_bytes == 0
                and self.under_attack):
            # Pure plain ACK while puzzles are demanded — e.g. an
            # unpatched host answering a challenge. Silently ignored: the
            # host believes it connected; data it sends later carries a
            # payload, falls through here, and draws an RST (§5).
            self._refuse("PlainAcksIgnored", packet.src_ip, packet.src_port,
                         "ignore", reason="plain-ack")
            return True
        return False

    def _complete_stock(self, tcb: HalfOpenTCB) -> bool:
        if self.accept_queue.full:
            # Stock Linux: leave the connection half-open; the SYN-ACK
            # timer keeps running and may later find room.
            self._refuse("AcceptOverflows", tcb.remote_ip, tcb.remote_port,
                         "ignore", reason="accept-overflow")
            return True
        self.listen_queue.complete(tcb.flow)
        self._install_tcb(tcb.remote_ip, tcb.remote_port,
                          _VIA_NORMAL, tcb.mss, tcb.wscale)
        return True

    def _complete_puzzle(self, packet: Packet) -> bool:
        # §5: verify only when there is room; otherwise ignore the ACK.
        if self.accept_queue.full:
            self._refuse("DeceptionAcksIgnored", packet.src_ip,
                         packet.src_port, "ignore",
                         reason="accept-full-deception")
            return True
        solution = packet.options.solution
        binding = FlowBinding(src_ip=packet.src_ip, dst_ip=packet.dst_ip,
                              src_port=packet.src_port,
                              dst_port=packet.dst_port,
                              isn=(packet.seq - 1) & 0xFFFFFFFF)
        scheme = self.config.scheme
        expected = self.config.puzzle_params
        if self.config.fairness is not None:
            # Fair queuing: accept any difficulty at or above this
            # source's current requirement (the solution echoes its own
            # parameters; a requirement that rose mid-handshake just
            # costs the client a retry).
            required = self.config.fairness.difficulty_for(
                packet.src_ip, self.host.engine.now)
            if (solution.params.k != required.k
                    or solution.params.m < required.m
                    or solution.params.length_bytes
                    != required.length_bytes):
                self._refuse("PuzzlesRejected", packet.src_ip,
                             packet.src_port, "reject",
                             reason="fairness-difficulty")
                return True
            expected = solution.params
        result = scheme.verify(
            solution, binding, self.host.now,
            expected, rng=self.host.rng,
            counter=self.host.hash_counter)
        self.host.cpu.consume(result.hashes_spent)
        if not result.ok:
            # Stale/future timestamps are the replay window at work; the
            # rest are genuinely bad solutions.
            if result.status in (VerifyStatus.EXPIRED,
                                 VerifyStatus.FUTURE_TIMESTAMP):
                cause = "ReplaysBlocked"
            else:
                cause = "PuzzlesRejected"
            self._refuse(cause, packet.src_ip, packet.src_port, "reject",
                         reason=result.status.value)
            return True  # silently dropped, no RST: stateless server
        self._mib_incr("PuzzlesVerified")
        return self._install_tcb(packet.src_ip, packet.src_port,
                                 _VIA_PUZZLE, solution.mss,
                                 solution.wscale)

    def _complete_cookie(self, packet: Packet) -> bool:
        """Complete a handshake through the SYN cookie *packet* echoes.

        False when the cookie does not validate (the caller counts the
        failure); True once a valid one is handled."""
        state = self._cookie_codec.decode(
            self.host.now, (packet.ack - 1) & 0xFFFFFFFF,
            packet.src_ip, packet.src_port, self.port,
            (packet.seq - 1) & 0xFFFFFFFF)
        if state is None:
            return False
        values = self._mib_values
        values["SynCookiesRecv"] = values.get("SynCookiesRecv", 0) + 1
        if self.accept_queue.full:
            self._refuse("AcceptOverflows", packet.src_ip, packet.src_port,
                         "ignore", reason="accept-overflow")
            return True
        return self._install_tcb(packet.src_ip, packet.src_port,
                                 _VIA_COOKIE, state.mss,
                                 state.wscale)

    def _install_tcb(self, remote_ip: int, remote_port: int,
                     path: EstablishPath, mss: int, wscale) -> bool:
        connection = ServerConnection(
            self.stack, self.port, remote_ip, remote_port, path, mss,
            wscale)
        if not self.accept_queue.try_add(connection):
            self._refuse("AcceptOverflows", remote_ip, remote_port,
                         "ignore", reason="accept-overflow")
            return True
        self.stack.register_server(connection)
        values = self._mib_values
        if path is _VIA_NORMAL:
            values["EstabNormal"] = values.get("EstabNormal", 0) + 1
        elif path is _VIA_COOKIE:
            values["EstabCookie"] = values.get("EstabCookie", 0) + 1
        elif path is _VIA_PUZZLE:
            values["EstabPuzzle"] = values.get("EstabPuzzle", 0) + 1
        else:
            values["EstabSynCache"] = values.get("EstabSynCache", 0) + 1
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.host.engine.now, self.host.name, "accept",
                        (remote_ip, remote_port, self.port),
                        path=path.value)
        if self.config.fairness is not None:
            self.config.fairness.record_established(
                remote_ip, self.host.engine.now)
        if self.on_established_hook is not None:
            self.on_established_hook(remote_ip, path)
        if self.on_acceptable is not None:
            self.on_acceptable()
        return True

    # ------------------------------------------------------------------
    # Fault injection: memory pressure
    # ------------------------------------------------------------------
    def apply_memory_pressure(self, listen_backlog: Optional[int] = None,
                              accept_backlog: Optional[int] = None,
                              syncache_limit: Optional[int] = None
                              ) -> dict:
        """Resize queue capacities mid-run, reclaiming overflow.

        Passing a smaller bound evicts entries immediately (oldest
        half-opens, newest un-accepted connections, oldest cache records);
        a larger bound restores headroom without creating state. Each
        reclaimed half-open is a failed handshake, booked as
        ``HalfOpenReclaimed``; a reclaimed connection already counted as
        established, so it books ``MemoryPressureReclaims``. Returns
        ``{"listen": n, "accept": n, "syncache": n}`` eviction counts.
        """
        evicted = {"listen": 0, "accept": 0, "syncache": 0}
        if listen_backlog is not None:
            reaped = self.listen_queue.resize(listen_backlog)
            for tcb in reaped:
                self._refuse("HalfOpenReclaimed", tcb.remote_ip,
                             tcb.remote_port, "expire",
                             reason="memory-pressure")
            evicted["listen"] = len(reaped)
        if accept_backlog is not None:
            shed = self.accept_queue.resize(accept_backlog)
            for connection in shed:
                self.stack.forget_server(connection)
            if shed:
                self._mib_incr("MemoryPressureReclaims", len(shed))
            evicted["accept"] = len(shed)
        if syncache_limit is not None and self.config.syncache is not None:
            evicted["syncache"] = self.config.syncache.set_bucket_limit(
                syncache_limit)
        return evicted

    # ------------------------------------------------------------------
    # App interface
    # ------------------------------------------------------------------
    def accept(self) -> Optional[ServerConnection]:
        """Dequeue the oldest established connection, or None."""
        connection = self.accept_queue.pop()
        if connection is not None:
            self.host.obs.hist.record(
                "accept_wait",
                self.host.engine.now - connection.established_at)
        return connection
