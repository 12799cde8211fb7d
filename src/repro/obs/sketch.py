"""Bounded-memory per-source attribution: heavy hitters and sketches.

The per-host counter scopes in :mod:`repro.obs.counters` are exact but
unbounded — one dict entry per source — which cannot survive the
ROADMAP's million-host fluid/packet era (Arnaboldi & Morisset's IoT DoS
analysis works at 10^6 devices). This module provides the streaming
alternatives with *fixed* memory:

* :class:`SpaceSaving` — the Metwally–Abbadi–Agrawal top-K heavy-hitter
  summary. ``capacity`` slots total; when full, the minimum-count slot
  is recycled for the newcomer, inheriting its count as the documented
  overestimation error. Guarantees: every true heavy hitter with
  frequency > N/capacity is retained, and each reported count satisfies
  ``true <= reported <= true + error`` with ``error`` tracked per slot.
* :class:`CountMinSketch` — a depth × width counter matrix with seeded
  multiply-shift hashing. Point estimates never undercount and
  overcount by at most ``e/width × N`` with probability
  ``1 - e^-depth`` (the standard CM bound with width = e/ε). Hashing is
  integer multiply-shift over the (integer) source address, so
  estimates are deterministic across processes — no salted ``hash()``.
  An update only buffers its key; every 1,024 keys, and before any
  read of the rows, the buffer folds into the rows in one
  numpy pass (uint64 multiply-shift, then one ``bincount``). Count-Min
  updates commute and uint64 arithmetic wraps modulo 2**64 exactly as
  the per-key hash masks it, so the rows equal a key-at-a-time
  sketch's whenever they are read.
* :class:`SourceAttribution` — the listener-facing bundle: SYN arrivals
  (Space-Saving + Count-Min), terminal drops by cause, and puzzle
  verification failures, all keyed by the source address masked to a
  configurable prefix.

Space-Saving finds its eviction victim through a min-heap of
``(count, key)`` pairs, one per tracked key, so an update costs
amortized O(log capacity) rather than a scan of every slot: under a
spoofed-source flood nearly every SYN is an untracked key that evicts.
A hit on a tracked key only bumps its dict count and leaves the key's
heap pair stale (its stored count below the current one); the eviction
path refreshes stale pairs at the top of the heap before trusting it,
and each refresh is paid for by the hits that made it stale. Capacity
is the spec's ``top_k`` (16 by default), attribution is opt-in
(``TelemetrySpec.attribution``), and the structures are plain
picklable data.
"""

from __future__ import annotations

import math
import random
from heapq import heappush, heapreplace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.net.addresses import format_ip

_MASK64 = (1 << 64) - 1

#: Keys a :class:`CountMinSketch` buffers before folding them into its
#: rows in one numpy pass.
_FOLD_BATCH = 1024


class SpaceSaving:
    """Deterministic Space-Saving top-K heavy-hitter summary."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError(
                f"SpaceSaving capacity must be >= 1, got {capacity!r}")
        self.capacity = int(capacity)
        self.evictions = 0
        self.total = 0
        self._counts: Dict[int, int] = {}
        self._errors: Dict[int, int] = {}
        # Min-heap of (stored_count, key), exactly one pair per tracked
        # key, with stored_count <= _counts[key]: a count only grows
        # while its key is tracked, and hits do not touch the heap.
        self._heap: List[Tuple[int, int]] = []

    def update(self, key: int) -> int:
        """Count one occurrence of *key*; returns its reported count."""
        counts = self._counts
        self.total += 1
        if key in counts:
            count = counts[key] + 1
            counts[key] = count
            return count
        heap = self._heap
        if len(counts) < self.capacity:
            counts[key] = 1
            self._errors[key] = 0
            heappush(heap, (1, key))
            return 1
        # Refresh stale pairs until the top holds its key's current
        # count. Every other pair then compares >= the top, and its
        # current count is >= its stored one, so the top is the exact
        # (count, key) minimum: the smallest count, ties broken on the
        # smaller key, so eviction order is deterministic across runs
        # and platforms.
        floor, victim = heap[0]
        current = counts[victim]
        while floor != current:
            heapreplace(heap, (current, victim))
            floor, victim = heap[0]
            current = counts[victim]
        # Recycle the victim's slot; the newcomer inherits its count as
        # the overestimation error.
        del counts[victim]
        del self._errors[victim]
        counts[key] = floor + 1
        self._errors[key] = floor
        heapreplace(heap, (floor + 1, key))
        self.evictions += 1
        return floor + 1

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: int) -> bool:
        return key in self._counts

    def count(self, key: int) -> int:
        """Reported (over-)count for *key*; 0 when not tracked."""
        return self._counts.get(key, 0)

    def error(self, key: int) -> int:
        """Maximum overestimation of *key*'s reported count."""
        return self._errors.get(key, 0)

    def top(self, k: Optional[int] = None
            ) -> List[Tuple[int, int, int]]:
        """``(key, count, error)`` triples, largest count first.

        Ties break on the smaller key, so the ordering — like the
        eviction rule — is deterministic.
        """
        items = sorted(self._counts.items(),
                       key=lambda item: (-item[1], item[0]))
        if k is not None:
            items = items[:k]
        return [(key, count, self._errors[key]) for key, count in items]

    def as_payload(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "total": self.total,
            "evictions": self.evictions,
            "top": [
                {"source": format_ip(key), "count": count, "error": error}
                for key, count, error in self.top()
            ],
        }


class CountMinSketch:
    """Seeded Count-Min sketch over integer keys."""

    def __init__(self, width: int, depth: int, seed: int = 0) -> None:
        if width < 1 or depth < 1:
            raise SimulationError(
                "Count-Min sketch needs width >= 1 and depth >= 1")
        # Power-of-two width turns the row index into a cheap shift.
        self.width = 1 << max(0, (int(width) - 1).bit_length())
        self.depth = int(depth)
        self.seed = int(seed)
        self.total = 0
        self._shift = 64 - self.width.bit_length() + 1
        rng = random.Random(self.seed)
        # Multiply-shift hashing (Dietzfelbinger): odd 64-bit multiplier
        # per row, top bits select the column. Integer-only, so the
        # estimates are identical in every worker process — Python's
        # salted str hash never enters the picture.
        self._a = tuple(rng.randrange(1, 1 << 64) | 1
                        for _ in range(self.depth))
        self._b = tuple(rng.randrange(0, 1 << 64)
                        for _ in range(self.depth))
        self._rows = np.zeros((self.depth, self.width), dtype=np.int64)
        #: Keys (mod 2**64) counted in ``total`` but not yet in the rows.
        self._pending: List[int] = []

    def _columns(self, keys: np.ndarray) -> np.ndarray:
        """Each uint64 key's column in every row, shape (depth, n):
        ``(a·k + b) >> shift``, the product and sum wrapping mod 2**64.
        numpy defines a shift by all 64 bits (width 1) as 0."""
        a = np.array(self._a, dtype=np.uint64)[:, None]
        b = np.array(self._b, dtype=np.uint64)[:, None]
        return ((a * keys + b) >> self._shift).astype(np.intp)

    def _fold(self) -> None:
        """Add the pending keys to the rows in one pass."""
        keys = np.array(self._pending, dtype=np.uint64)
        self._pending.clear()
        depth, width = self.depth, self.width
        # Offset each row's columns into one flat index space, so a
        # single bincount counts every (row, column) hit.
        flat = (self._columns(keys)
                + np.arange(0, depth * width, width, dtype=np.intp)[:, None])
        self._rows += np.bincount(
            flat.ravel(), minlength=depth * width).reshape(depth, width)

    def update(self, key: int) -> None:
        """Count one occurrence of *key*."""
        self.total += 1
        pending = self._pending
        pending.append(key & _MASK64)
        if len(pending) >= _FOLD_BATCH:
            self._fold()

    def estimate(self, key: int) -> int:
        """Point estimate for *key*: never below the true count."""
        if self._pending:
            self._fold()
        columns = self._columns(np.array([key & _MASK64], dtype=np.uint64))
        return int(self._rows[np.arange(self.depth), columns[:, 0]].min())

    def error_bound(self) -> float:
        """Additive overcount bound ``e/width × total`` (holds with
        probability ``1 - e^-depth``)."""
        return math.e / self.width * self.total

    def as_payload(self) -> Dict[str, object]:
        return {
            "width": self.width,
            "depth": self.depth,
            "seed": self.seed,
            "total": self.total,
            "error_bound": self.error_bound(),
        }


class SourceAttribution:
    """Bounded-memory per-source attack attribution for a listener.

    Tracks three dimensions, each through a :class:`SpaceSaving`
    summary (SYN arrivals additionally through a :class:`CountMinSketch`
    for point estimates on non-heavy sources):

    * ``syns`` — every SYN reaching the listening socket;
    * ``drops`` — terminal drop events, overall and per cause (lazily
      one summary per :data:`~repro.obs.counters.DROP_CAUSES` name, so
      the cause dimension is bounded by the catalogue, not the hosts);
    * ``puzzle_failures`` — rejected/replayed puzzle solutions.

    Keys are source addresses masked to ``prefix_bits``. Total memory is
    O(top_k × causes + cms_width × cms_depth), independent of how many
    distinct sources the attack spoofs. ``SynCacheEvictions`` is the one
    drop cause that never lands here: it is incremented inside the
    cache, where the evicted entry's opener is no longer on hand.
    """

    def __init__(self, top_k: int = 16, cms_width: int = 512,
                 cms_depth: int = 4, prefix_bits: int = 32,
                 seed: int = 0) -> None:
        if not 0 <= prefix_bits <= 32:
            raise SimulationError(
                f"prefix_bits must be in [0, 32], got {prefix_bits!r}")
        self.prefix_bits = int(prefix_bits)
        self._mask = (0xFFFFFFFF << (32 - self.prefix_bits)) & 0xFFFFFFFF
        self.syns = SpaceSaving(top_k)
        self.syn_sketch = CountMinSketch(cms_width, cms_depth, seed)
        self.drops = SpaceSaving(top_k)
        self.drops_by_cause: Dict[str, SpaceSaving] = {}
        self.puzzle_failures = SpaceSaving(top_k)
        self._top_k = int(top_k)

    @classmethod
    def from_spec(cls, spec, seed: int = 0) -> "SourceAttribution":
        """Build from a :class:`~repro.obs.timeseries.TelemetrySpec`."""
        return cls(top_k=spec.top_k, cms_width=spec.cms_width,
                   cms_depth=spec.cms_depth,
                   prefix_bits=spec.prefix_bits, seed=seed)

    # ------------------------------------------------------------------
    def key_for(self, src_ip: int) -> int:
        return src_ip & self._mask

    def on_syn(self, src_ip: int) -> None:
        key = src_ip & self._mask
        self.syns.update(key)
        self.syn_sketch.update(key)

    def on_drop(self, src_ip: int, cause: str) -> None:
        key = src_ip & self._mask
        self.drops.update(key)
        per_cause = self.drops_by_cause.get(cause)
        if per_cause is None:
            per_cause = SpaceSaving(self._top_k)
            self.drops_by_cause[cause] = per_cause
        per_cause.update(key)

    def on_puzzle_failure(self, src_ip: int) -> None:
        self.puzzle_failures.update(src_ip & self._mask)

    # ------------------------------------------------------------------
    def estimate_syns(self, src_ip: int) -> int:
        """Count-Min estimate of SYNs from a source (≥ true count)."""
        return self.syn_sketch.estimate(src_ip & self._mask)

    def snapshot(self) -> Dict[str, object]:
        """Deterministic JSON-friendly digest of every dimension."""
        return {
            "prefix_bits": self.prefix_bits,
            "syns": self.syns.as_payload(),
            "syn_sketch": self.syn_sketch.as_payload(),
            "drops": self.drops.as_payload(),
            "drops_by_cause": {
                cause: self.drops_by_cause[cause].as_payload()
                for cause in sorted(self.drops_by_cause)
            },
            "puzzle_failures": self.puzzle_failures.as_payload(),
        }
