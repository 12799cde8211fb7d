"""Graceful-degradation ladder: admission control + overload watchdog.

The paper's premise (§2.1) is that each SYN-flood defense fails
differently under state exhaustion — caches churn, cookies shed options,
puzzles price everyone. What a production kernel actually does is *chain*
the failure modes into a ladder so the server degrades instead of
falling off a cliff. This module provides the two rungs the TCP stack
itself cannot express:

* :class:`AdmissionControl` — a deterministic token-bucket SYN rate
  limiter at the listener's front door, with per-source-prefix tiers.
  Heavy hitters are identified with the :class:`~repro.obs.sketch.
  SpaceSaving` top-K summary (bounded memory, deterministic eviction),
  and once a prefix's SYN count crosses ``heavy_hitter_min`` it is
  moved onto its own, tighter bucket. Everything is sim-time lazy-refill
  arithmetic — no timers, no wall clock — so admission decisions are
  bit-identical across runs, engines, and fabrics.
* :class:`OverloadWatchdog` — an engine tap (one
  :class:`~repro.sim.process.AlignedPeriodicProcess`, absolute-aligned
  so its samples merge across sweep cells) driving the

  ::

      NORMAL -> PRESSURE -> OVERLOAD -> RECOVERY -> NORMAL
                   ^______________________|

  state machine off three deterministic signals: syncache occupancy
  (fraction of the *effective*, budget-clipped capacity), the
  accept-queue wait p95 **over the last interval** (bucket-delta
  quantile, so the signal decays when the queue drains — a cumulative
  quantile never would), and :class:`~repro.hosts.host.CPUResource`
  saturation (busy-seconds delta over the interval). Transitions emit
  ``overload-state`` tracepoints and the state rides a
  ``repro_overload_state`` gauge series; on entering OVERLOAD the
  watchdog can escalate puzzle difficulty through the same
  ``set_difficulty`` sysctl the :mod:`repro.tcp.adaptive` controller
  drives, restoring it on the way back to NORMAL.

The third rung — the syncookie fallback with occupancy hysteresis —
lives in the listener itself (:meth:`~repro.tcp.listener.ListenSocket.
_syncache_insert`), configured by the same :class:`OverloadConfig`.

Everything is fully detached by default: ``ScenarioConfig.overload``
is ``None``, no watchdog or limiter is constructed, and runs stay
byte-identical to a build without this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.obs.sketch import SpaceSaving
from repro.obs.timeseries import TimeSeries
from repro.sim.process import AlignedPeriodicProcess
from repro.tcp.adaptive import escalated_params
from repro.tcp.constants import DefenseMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.tcp.listener import ListenSocket


class OverloadState(enum.Enum):
    """Watchdog ladder states; values are the gauge encoding."""

    NORMAL = 0
    PRESSURE = 1
    OVERLOAD = 2
    RECOVERY = 3


@dataclass(frozen=True)
class OverloadConfig:
    """One knob bundle for the whole degradation ladder.

    Frozen (and built from plain scalars) so it pickles across sweep
    workers and canonicalizes into result-cache keys unchanged —
    the same contract as :class:`~repro.obs.timeseries.TelemetrySpec`.
    """

    # -- syncache construction ---------------------------------------
    syncache_buckets: int = 512
    syncache_bucket_limit: int = 30
    syncache_policy: str = "oldest-per-bucket"
    #: Bytes the cache may hold resident (None = structural capacity).
    syncache_memory_budget: Optional[int] = None
    #: Reap cache records older than this (None = churn-only baseline).
    syncache_lifetime: Optional[float] = None

    # -- syncookie fallback (listener hysteresis) --------------------
    #: Occupancy fraction at which the listener stops inserting and
    #: answers with stateless cookies. None disables the fallback rung.
    high_watermark: Optional[float] = 0.85
    #: Occupancy fraction below which the cache re-arms.
    low_watermark: float = 0.60

    # -- admission control -------------------------------------------
    #: Global SYN admission rate (tokens/second). None disables the rung.
    syn_rate_limit: Optional[float] = None
    syn_burst: float = 64.0
    #: Space-Saving slots for heavy-hitter tracking.
    heavy_hitter_slots: int = 16
    #: Per-prefix rate for heavy hitters (None = global bucket only).
    heavy_hitter_rate: Optional[float] = None
    #: SYN count at which a prefix is promoted to its own tier.
    heavy_hitter_min: int = 128
    #: Source prefix width for the tiers (32 = exact hosts).
    prefix_bits: int = 32

    # -- watchdog -----------------------------------------------------
    watchdog_interval: float = 0.25
    #: Occupancy fraction that takes NORMAL to PRESSURE.
    pressure_occupancy: float = 0.60
    #: Occupancy fraction that takes PRESSURE to OVERLOAD.
    overload_occupancy: float = 0.90
    #: Interval accept-wait p95 (seconds) counting toward OVERLOAD.
    accept_wait_p95: float = 1.0
    #: CPU busy fraction over the interval counting toward OVERLOAD.
    cpu_saturation: float = 0.90
    #: Seconds RECOVERY must hold below the pressure thresholds
    #: before the watchdog declares NORMAL.
    recovery_hold: float = 2.0
    #: Puzzle-difficulty escalation on entering OVERLOAD (added to the
    #: configured m, clamped to ``escalate_ceiling``). 0 = no escalation.
    escalate_m: int = 0
    escalate_ceiling: int = 22

    def __post_init__(self) -> None:
        if self.high_watermark is not None:
            if not 0.0 < self.high_watermark <= 1.0:
                raise SimulationError(
                    f"high_watermark must be in (0, 1], got "
                    f"{self.high_watermark!r}")
            if not 0.0 <= self.low_watermark < self.high_watermark:
                raise SimulationError(
                    f"low_watermark {self.low_watermark!r} must sit below "
                    f"high_watermark {self.high_watermark!r}")
        if self.syn_rate_limit is not None and self.syn_rate_limit <= 0:
            raise SimulationError(
                f"syn_rate_limit must be positive, got "
                f"{self.syn_rate_limit!r}")
        if self.syn_burst < 1.0:
            raise SimulationError(
                f"syn_burst must be >= 1, got {self.syn_burst!r}")
        if self.heavy_hitter_rate is not None \
                and self.heavy_hitter_rate <= 0:
            raise SimulationError(
                f"heavy_hitter_rate must be positive, got "
                f"{self.heavy_hitter_rate!r}")
        if not 0 <= self.prefix_bits <= 32:
            raise SimulationError(
                f"prefix_bits must be in [0, 32], got {self.prefix_bits!r}")
        if self.watchdog_interval <= 0:
            raise SimulationError(
                f"watchdog_interval must be positive, got "
                f"{self.watchdog_interval!r}")
        if not (0.0 < self.pressure_occupancy
                <= self.overload_occupancy <= 1.0):
            raise SimulationError(
                "need 0 < pressure_occupancy <= overload_occupancy <= 1, "
                f"got {self.pressure_occupancy!r} / "
                f"{self.overload_occupancy!r}")
        if self.recovery_hold < 0:
            raise SimulationError(
                f"recovery_hold must be >= 0, got {self.recovery_hold!r}")
        if self.escalate_m < 0:
            raise SimulationError(
                f"escalate_m must be >= 0, got {self.escalate_m!r}")


class TokenBucket:
    """Sim-time lazy-refill token bucket (deterministic, timer-free).

    Tokens accrue continuously at ``rate`` per second up to ``burst``;
    :meth:`allow` spends one token when a full one is available. All
    arithmetic happens on the caller's clock reads, so two runs feeding
    the same arrival times make the same decisions bit for bit.
    """

    __slots__ = ("rate", "burst", "tokens", "last_refill")

    def __init__(self, rate: float, burst: float,
                 now: float = 0.0) -> None:
        if rate <= 0:
            raise SimulationError(
                f"token rate must be positive, got {rate!r}")
        if burst < 1.0:
            raise SimulationError(
                f"burst must be >= 1 token, got {burst!r}")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last_refill = now

    def allow(self, now: float) -> bool:
        tokens = self.tokens + (now - self.last_refill) * self.rate
        if tokens > self.burst:
            tokens = self.burst
        self.last_refill = now
        if tokens >= 1.0:
            self.tokens = tokens - 1.0
            return True
        self.tokens = tokens
        return False


class AdmissionControl:
    """Listener front-door SYN rate limiter with heavy-hitter tiers.

    Every SYN source (masked to ``prefix_bits``) feeds a
    :class:`SpaceSaving` summary. Sources the summary reports above
    ``heavy_hitter_min`` are demoted to their own per-prefix bucket at
    ``heavy_hitter_rate``; a heavy hitter must pass its tier **and**
    the global bucket, so the flood cannot starve light sources by
    draining the global bucket alone — its own tier throttles it first.
    Memory is O(heavy_hitter_slots): tier buckets are pruned as their
    prefixes fall out of the summary.
    """

    def __init__(self, config: OverloadConfig, now: float = 0.0) -> None:
        if config.syn_rate_limit is None:
            raise SimulationError(
                "AdmissionControl needs syn_rate_limit set")
        self.config = config
        self._mask = ((0xFFFFFFFF << (32 - config.prefix_bits))
                      & 0xFFFFFFFF if config.prefix_bits else 0)
        self.bucket = TokenBucket(config.syn_rate_limit,
                                  config.syn_burst, now)
        self.sources = SpaceSaving(config.heavy_hitter_slots)
        self._tiers: Dict[int, TokenBucket] = {}
        self.allowed = 0
        self.dropped = 0
        self.tier_drops = 0

    def admit(self, src_ip: int, now: float) -> bool:
        """Decide one SYN; updates the heavy-hitter summary either way."""
        key = src_ip & self._mask
        count = self.sources.update(key)
        config = self.config
        if (config.heavy_hitter_rate is not None
                and count >= config.heavy_hitter_min):
            tier = self._tiers.get(key)
            if tier is None:
                if len(self._tiers) >= 2 * config.heavy_hitter_slots:
                    self._prune_tiers()
                tier = TokenBucket(config.heavy_hitter_rate,
                                   config.syn_burst, now)
                self._tiers[key] = tier
            if not tier.allow(now):
                self.tier_drops += 1
                self.dropped += 1
                return False
        if not self.bucket.allow(now):
            self.dropped += 1
            return False
        self.allowed += 1
        return True

    def _prune_tiers(self) -> None:
        # Drop tier buckets whose prefix the summary has since evicted
        # (sorted iteration keeps the prune order deterministic).
        for key in sorted(self._tiers):
            if key not in self.sources:
                del self._tiers[key]

    def snapshot(self) -> Dict[str, object]:
        return {
            "allowed": self.allowed,
            "dropped": self.dropped,
            "tier_drops": self.tier_drops,
            "tiers": len(self._tiers),
            "sources": self.sources.as_payload(),
        }


class OverloadWatchdog:
    """Engine tap driving the NORMAL→PRESSURE→OVERLOAD→RECOVERY ladder.

    One aligned periodic tick reads three deterministic signals —
    syncache occupancy fraction, interval accept-wait p95, and CPU busy
    fraction — and walks the state machine. See the module docstring
    for the transition rules; :meth:`snapshot` is the payload that rides
    the ``ScenarioSummary.overload`` block.
    """

    def __init__(self, listener: "ListenSocket",
                 config: OverloadConfig) -> None:
        self.listener = listener
        self.config = config
        self.host = listener.host
        self.engine = self.host.engine
        self.state = OverloadState.NORMAL
        self.transitions: Dict[str, int] = {}
        self.time_in_state: Dict[str, float] = {
            state.name: 0.0 for state in OverloadState}
        self.ticks = 0
        self.peak_occupancy = 0.0
        self.peak_occupancy_bytes = 0
        self.series = TimeSeries("repro_overload_state", "gauge",
                                 config.watchdog_interval)
        self._entered_at = self.engine.now
        self._recovery_since: Optional[float] = None
        self._last_busy = self.host.cpu.busy_seconds(self.engine.now)
        self._wait_counts: Dict[int, int] = {}
        self._wait_total = 0
        self._base_params = None
        self._process = AlignedPeriodicProcess(
            self.engine, self._tick, config.watchdog_interval)
        listener.watchdog = self

    # ------------------------------------------------------------------
    def start(self, delay: float = 0.0) -> None:
        self._process.start(delay)

    def stop(self) -> None:
        self._process.stop()
        self._settle_time()

    def _settle_time(self) -> None:
        now = self.engine.now
        self.time_in_state[self.state.name] += now - self._entered_at
        self._entered_at = now

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def _occupancy(self) -> float:
        cache = self.listener.config.syncache
        if cache is not None:
            return cache.occupancy_fraction
        # No cache (cookies/puzzles/stock): the listen queue is the
        # exhaustible state; its fill fraction plays the same role.
        queue = self.listener.listen_queue
        backlog = queue.backlog
        return len(queue._table) / backlog if backlog else 1.0

    def _cpu_fraction(self) -> float:
        busy = self.host.cpu.busy_seconds(self.engine.now)
        fraction = (busy - self._last_busy) / self.config.watchdog_interval
        self._last_busy = busy
        return fraction

    def _wait_p95(self) -> float:
        """Accept-wait p95 over the last interval (bucket-delta walk).

        A cumulative quantile never decays once an overload has filled
        the histogram, so RECOVERY would be unreachable; diffing the
        log-bucket counts gives a windowed quantile from the same exact
        counters (bucket upper bound — conservative).
        """
        hist = self.host.obs.hist.get("accept_wait")
        if hist is None:
            return 0.0
        previous, prev_total = self._wait_counts, self._wait_total
        self._wait_counts = dict(hist.counts)
        self._wait_total = hist.count
        window = self._wait_total - prev_total
        if window <= 0:
            return 0.0
        rank = 0.95 * window
        cumulative = 0
        for index in sorted(self._wait_counts):
            delta = self._wait_counts[index] - previous.get(index, 0)
            if delta <= 0:
                continue
            cumulative += delta
            if cumulative >= rank:
                return hist.bucket_bounds(index)[1]
        return hist.bucket_bounds(max(self._wait_counts))[1]

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self.ticks += 1
        config = self.config
        occupancy = self._occupancy()
        cpu = self._cpu_fraction()
        wait_p95 = self._wait_p95()
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        cache = self.listener.config.syncache
        if cache is not None \
                and cache.occupancy_bytes > self.peak_occupancy_bytes:
            self.peak_occupancy_bytes = cache.occupancy_bytes

        hot = (occupancy >= config.overload_occupancy
               or (wait_p95 >= config.accept_wait_p95
                   and cpu >= config.cpu_saturation))
        warm = (occupancy >= config.pressure_occupancy
                or cpu >= config.cpu_saturation)
        state = self.state
        now = self.engine.now
        if state is OverloadState.NORMAL:
            if hot:
                self._transition(OverloadState.OVERLOAD, occupancy, cpu)
            elif warm:
                self._transition(OverloadState.PRESSURE, occupancy, cpu)
        elif state is OverloadState.PRESSURE:
            if hot:
                self._transition(OverloadState.OVERLOAD, occupancy, cpu)
            elif not warm:
                self._transition(OverloadState.NORMAL, occupancy, cpu)
        elif state is OverloadState.OVERLOAD:
            if not warm and not hot:
                self._recovery_since = now
                self._transition(OverloadState.RECOVERY, occupancy, cpu)
        else:  # RECOVERY
            if hot:
                self._recovery_since = None
                self._transition(OverloadState.OVERLOAD, occupancy, cpu)
            elif warm:
                # Pressure re-appeared: keep holding, restart the clock.
                self._recovery_since = now
            elif now - self._recovery_since >= config.recovery_hold:
                self._recovery_since = None
                self._transition(OverloadState.NORMAL, occupancy, cpu)
        self.series.record(now, float(self.state.value))

    def _transition(self, to: OverloadState, occupancy: float,
                    cpu: float) -> None:
        source = self.state
        now = self.engine.now
        self.time_in_state[source.name] += now - self._entered_at
        self._entered_at = now
        self.state = to
        edge = f"{source.name}->{to.name}"
        self.transitions[edge] = self.transitions.get(edge, 0) + 1
        listener = self.listener
        tracer = listener._tracer
        if tracer.enabled:
            tracer.emit(now, self.host.name, "overload-state",
                        (0, 0, listener.port), src=source.name,
                        dst=to.name, occupancy=round(occupancy, 4),
                        cpu=round(cpu, 4))
        if self.config.escalate_m > 0 \
                and listener.config.mode is DefenseMode.PUZZLES:
            if to is OverloadState.OVERLOAD and self._base_params is None:
                params = listener.config.puzzle_params
                self._base_params = params
                listener.set_difficulty(*escalated_params(
                    params, self.config.escalate_m,
                    self.config.escalate_ceiling))
            elif to is OverloadState.NORMAL \
                    and self._base_params is not None:
                params = self._base_params
                self._base_params = None
                listener.set_difficulty(params.k, params.m)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly digest for the ``overload`` summary block."""
        self._settle_time()
        listener = self.listener
        cache = listener.config.syncache
        payload: Dict[str, object] = {
            "state": self.state.name,
            "ticks": self.ticks,
            "transitions": dict(sorted(self.transitions.items())),
            "time_in_state": {name: self.time_in_state[name]
                              for name in sorted(self.time_in_state)},
            "peak_occupancy": self.peak_occupancy,
            "peak_occupancy_bytes": self.peak_occupancy_bytes,
            "cookie_fallbacks": listener.stats.synacks_cookie_fallback,
            "series": self.series.as_payload(),
        }
        if cache is not None:
            payload["syncache"] = {
                "policy": cache.policy,
                "max_entries": cache.max_entries,
                "memory_budget": cache.memory_budget,
                "occupancy_bytes": cache.occupancy_bytes,
                "rejected": listener.mib["SynCacheRejects"],
            }
        if listener.admission is not None:
            payload["admission"] = listener.admission.snapshot()
        return payload
