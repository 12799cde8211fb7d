"""Declarative fault schedules — the hashable "chaos config".

A :class:`FaultSchedule` is a frozen dataclass of frozen dataclasses, so
it canonicalizes through :func:`repro.runner.hashing.canonicalize` with
no special casing: folding a schedule into a sweep spec automatically
gives every ``(config, schedule)`` pair its own cache key, and two runs
with the same pair are byte-identical (the injectors draw from RNG
streams derived only from the scenario seed and fault names).

Six fault classes cover the degraded conditions the robustness work
targets:

* :class:`LossBurst`   — Gilbert–Elliott bursty loss on matching links;
* :class:`LinkFlap`    — a link outage window (frames dropped outright);
* :class:`OptionCorruption` — bit-flips in TCP puzzle option blocks,
  exercising the codec reject paths and the RST-on-data deception;
* :class:`ClockSkew`   — a step (plus optional jitter) in one host's
  wall-clock view, stressing the timestamp replay window;
* :class:`MemoryPressure` — queue/syncache capacity shrinks mid-run;
* :class:`SecretRotation` — mid-flight puzzle-secret rotations.

Times are absolute simulation seconds (already scaled — build windows
from ``config.attack_start``/``config.attack_end``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Tuple

from repro.errors import ExperimentError


def _check_window(start: float, end: float) -> None:
    if start < 0 or end < start:
        raise ExperimentError(
            f"need 0 <= start <= end, got [{start!r}, {end!r})")


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ExperimentError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True)
class LossBurst:
    """Gilbert–Elliott two-state loss on links matching *links*.

    While the window is open, each offered packet advances a good/bad
    Markov chain (``p_good_bad``/``p_bad_good`` transition probabilities)
    and is lost with ``loss_bad`` in the bad state, ``loss_good`` in the
    good state — bursty loss rather than the independent Bernoulli the
    link's own ``loss_rate`` models.
    """

    start: float
    end: float
    p_good_bad: float = 0.05
    p_bad_good: float = 0.3
    loss_bad: float = 0.5
    loss_good: float = 0.0
    #: fnmatch pattern over link names (``"a->b"``); ``"*"`` = all links.
    links: str = "*"

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        for name in ("p_good_bad", "p_bad_good", "loss_bad", "loss_good"):
            _check_probability(name, getattr(self, name))


@dataclass(frozen=True)
class LinkFlap:
    """A hard outage window on links matching *links*: every offered
    frame is dropped without consuming airtime (the interface is down)."""

    start: float
    end: float
    links: str = "*"

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)


@dataclass(frozen=True)
class OptionCorruption:
    """Bit-flip corruption of puzzle option blocks in flight.

    Packets carrying a challenge or solution option are corrupted with
    *probability* while the window is open: one bit of the challenge
    pre-image or of a solution string is inverted, leaving lengths (and
    hence wire size accounting) intact. Corrupted solutions exercise the
    verifier's reject path; corrupted challenges make the client compute
    a solution the server will refuse — both ending in the deception
    behaviour (the peer believes it connected and its data draws an RST).
    """

    start: float
    end: float
    probability: float = 0.25

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        _check_probability("probability", self.probability)


@dataclass(frozen=True)
class ClockSkew:
    """A wall-clock step on one host at time *at*.

    ``offset`` shifts the host's timestamp reads (puzzle challenge
    generation/verification, cookie timestamps) from *at* onward; with
    ``jitter > 0`` the offset is re-drawn in ``offset ± jitter`` every
    *interval* seconds, modelling an unstable clock. Engine timers are
    unaffected — skew perturbs what the host *reads*, not when it runs.
    """

    host: str
    at: float
    offset: float
    jitter: float = 0.0
    interval: float = 0.5

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ExperimentError(f"at must be >= 0, got {self.at!r}")
        if self.jitter < 0:
            raise ExperimentError(
                f"jitter must be >= 0, got {self.jitter!r}")
        # A host clock below zero has no cookie time counter or 32-bit
        # puzzle timestamp to encode.
        if self.at + self.offset - self.jitter < 0:
            raise ExperimentError(
                f"skew would set the clock below zero: at + offset - "
                f"jitter = {self.at + self.offset - self.jitter!r}")
        if self.jitter > 0 and self.interval <= 0:
            raise ExperimentError(
                f"jittered skew needs interval > 0, got {self.interval!r}")


@dataclass(frozen=True)
class MemoryPressure:
    """Shrink server queue capacities over a window.

    At *start* each capacity is multiplied by its factor (floored at 1)
    and the overflow is reclaimed immediately; at *end* the original
    capacity is restored. A factor of 1.0 leaves that queue alone.
    """

    start: float
    end: float
    listen_factor: float = 0.25
    accept_factor: float = 1.0
    syncache_factor: float = 1.0

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        for name in ("listen_factor", "accept_factor", "syncache_factor"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ExperimentError(
                    f"{name} must be in (0, 1], got {value!r}")


@dataclass(frozen=True)
class SecretRotation:
    """Rotate the puzzle secret at each listed time.

    Each rotation keeps the previous key valid (the scheme's grace
    window), so only challenges already two generations old fail —
    back-to-back rotations inside one solve time are the stress case.
    """

    times: Tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(self.times))
        for t in self.times:
            if t < 0:
                raise ExperimentError(f"rotation time must be >= 0: {t!r}")


@dataclass(frozen=True)
class FaultSchedule:
    """The full fault plan for one run — hashable, picklable, declarative."""

    loss_bursts: Tuple[LossBurst, ...] = ()
    link_flaps: Tuple[LinkFlap, ...] = ()
    corruption: Tuple[OptionCorruption, ...] = ()
    clock_skews: Tuple[ClockSkew, ...] = ()
    memory_pressure: Tuple[MemoryPressure, ...] = ()
    secret_rotations: Tuple[SecretRotation, ...] = ()

    def __post_init__(self) -> None:
        # Accept lists for ergonomics but store tuples so the schedule
        # stays hashable and canonicalizable.
        for spec in fields(self):
            object.__setattr__(self, spec.name,
                               tuple(getattr(self, spec.name)))

    def is_empty(self) -> bool:
        """True when no fault class has any entries."""
        return not any(getattr(self, spec.name) for spec in fields(self))

    def fingerprint(self) -> str:
        """Stable content hash (same machinery as sweep cache keys)."""
        from repro.runner.hashing import stable_hash

        return stable_hash(self)
