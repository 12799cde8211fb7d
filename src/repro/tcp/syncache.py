"""BSD-style SYN cache (Lemon 2002) — the paper's other §2.1 baseline.

Instead of a full TCB per half-open connection, the cache keeps a compact
record in one flat hashed table with per-bucket bounds. When a bucket
overflows, an entry in that bucket is evicted — which is exactly why the
paper notes caches fail against large botnets: sufficient attack rate
simply churns the cache.

The overload ladder (:mod:`repro.tcp.overload`) drives three additions to
the flat 512×30 table the paper discusses:

* **Pluggable overflow policies.** ``oldest-per-bucket`` is the
  historical behaviour and the default. ``random-evict`` picks the
  victim with a :mod:`repro.sim.rng` stream (deterministic per seed).
  ``reject-new`` refuses the insert instead of evicting, the
  conservative policy a kernel under memory pressure prefers.
* **Memory budget.** ``memory_budget`` (bytes) bounds the resident
  entries below the structural ``bucket_count × bucket_limit`` capacity
  (at :data:`ENTRY_BYTES` per record); occupancy is exported in bytes so
  telemetry can chart cache pressure against the budget.
* **Expiry.** With ``lifetime`` set, bucket probes purge entries that
  have outlived it before doing their own work, and the listener arms a
  rotating reaper that sweeps one stripe of buckets per tick
  (:meth:`SynCache.expire_shard_older_than`), so a cache stays fresh
  without stalling on the whole table.

The cache books ``SynCacheAdded``, ``SynCacheHits``,
``SynCacheEvictions`` and ``SynCacheExpired`` once each, in a
:class:`~repro.obs.counters.CounterScope` (``SynCache.counters``): its
own until the listener attaches the host MIB. Its ``insertions``,
``completions``, ``evictions`` and ``expired`` read that scope back.

The paper discusses but does not evaluate the cache; we include it so the
ablation benchmarks can compare all four server configurations.
"""

from __future__ import annotations

import hashlib
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.counters import CounterScope

Flow = Tuple[int, int, int]  # (remote_ip, remote_port, local_port)

#: Overflow policies, in documentation order. ``oldest-per-bucket`` is
#: the historical behaviour and stays the default.
OVERFLOW_POLICIES: Tuple[str, ...] = (
    "oldest-per-bucket", "random-evict", "reject-new")

#: Nominal bytes one resident record costs — the compact syncache struct
#: plus hash-table overhead, far below a full TCB (the whole point of
#: Lemon's design). Used for the memory-budget arithmetic.
ENTRY_BYTES = 64

#: Keys the bucket hash (and seeds ``random-evict`` when no stream is
#: supplied).
_SECRET = b"syncache"


@dataclass(slots=True)
class CacheEntry:
    """Compact half-open record (a fraction of a full TCB)."""

    flow: Flow
    remote_isn: int
    local_isn: int
    mss: int
    wscale: Optional[int]
    created_at: float


class SynCache:
    """Bounded half-open cache with pluggable eviction."""

    def __init__(self, bucket_count: int = 512,
                 bucket_limit: int = 30,
                 policy: str = "oldest-per-bucket",
                 rng: Optional[random.Random] = None,
                 memory_budget: Optional[int] = None,
                 lifetime: Optional[float] = None) -> None:
        if bucket_count < 1 or bucket_limit < 1:
            raise SimulationError("bucket_count and bucket_limit must be >=1")
        if policy not in OVERFLOW_POLICIES:
            raise SimulationError(
                f"unknown overflow policy {policy!r} "
                f"(choose from {', '.join(OVERFLOW_POLICIES)})")
        if memory_budget is not None and memory_budget < ENTRY_BYTES:
            raise SimulationError(
                f"memory_budget {memory_budget} cannot hold even one "
                f"{ENTRY_BYTES}-byte entry")
        if lifetime is not None and lifetime <= 0:
            raise SimulationError(
                f"lifetime must be positive, got {lifetime!r}")
        self.bucket_count = bucket_count
        self.bucket_limit = bucket_limit
        self.policy = policy
        self.memory_budget = memory_budget
        #: Records older than this many seconds are reaped (BSD reaps a
        #: syncache entry once its SYN-ACK retries are exhausted); the
        #: listener arms its reaper from it. ``None`` keeps the
        #: churn-only baseline the paper discusses.
        self.lifetime = lifetime
        self._set_max_entries()
        self._buckets: List["OrderedDict[Flow, CacheEntry]"] = [
            OrderedDict() for _ in range(bucket_count)
        ]
        self._live = 0
        #: Where the cache books its counts (plain dict updates on its
        #: ``_values``, no call per event). The listener replaces this
        #: private scope with its host MIB before the first SYN.
        self.counters = CounterScope("syncache")
        if rng is None and policy == "random-evict":
            # Deterministic fallback when no repro.sim.rng stream is
            # supplied: derive the seed from the bucket-hash secret.
            rng = random.Random(int.from_bytes(
                hashlib.sha256(_SECRET + b"/evict").digest()[:8], "big"))
        self._rng = rng

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _index_for(self, flow: Flow) -> int:
        material = (_SECRET
                    + flow[0].to_bytes(4, "big")
                    + flow[1].to_bytes(2, "big")
                    + flow[2].to_bytes(2, "big"))
        digest = hashlib.sha256(material).digest()
        return int.from_bytes(digest[:4], "big") % self.bucket_count

    @property
    def shard_count(self) -> int:
        """Stripes the rotating reaper sweeps in turn (bucket ``i`` is in
        stripe ``i % shard_count``): the largest power of two
        ≤ min(8, bucket_count)."""
        return 1 << (min(8, self.bucket_count).bit_length() - 1)

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        # Maintained incrementally on every insert/complete/evict/expire
        # — O(1). The syncache_churn micro-benchmark asserts it against
        # a recount.
        return self._live

    def occupancy_recount(self) -> int:
        """O(buckets) recount of resident entries — the audit value the
        incremental ``len`` must always equal (invariant checker and the
        churn micro-benchmark both assert it)."""
        return sum(len(bucket) for bucket in self._buckets)

    @property
    def capacity(self) -> int:
        """Structural bound: ``bucket_count × bucket_limit``."""
        return self.bucket_count * self.bucket_limit

    def _set_max_entries(self) -> None:
        """Set ``max_entries``, the effective bound: structural capacity
        clipped by the budget (at least 1).

        A plain attribute rather than a property, because every insert
        and every watermark check reads it; it is reset whenever the
        bucket limit changes.
        """
        limit = self.capacity
        if self.memory_budget is not None:
            limit = min(limit, self.memory_budget // ENTRY_BYTES)
        self.max_entries = limit

    @property
    def occupancy_bytes(self) -> int:
        """Resident entries at :data:`ENTRY_BYTES` each — what the memory
        budget bounds and telemetry charts."""
        return self._live * ENTRY_BYTES

    @property
    def occupancy_fraction(self) -> float:
        """Fill fraction of the *effective* capacity (watermark input)."""
        return self._live / self.max_entries

    # ------------------------------------------------------------------
    # Counts, read back from the scope the cache books them in
    # ------------------------------------------------------------------
    @property
    def insertions(self) -> int:
        return self.counters.get("SynCacheAdded")

    @property
    def completions(self) -> int:
        return self.counters.get("SynCacheHits")

    @property
    def evictions(self) -> int:
        return self.counters.get("SynCacheEvictions")

    @property
    def expired(self) -> int:
        return self.counters.get("SynCacheExpired")

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, entry: CacheEntry) -> bool:
        """Add a half-open record, applying the overflow policy if the
        bucket (or the memory budget) is full.

        Returns ``True`` when the record is resident afterwards (fresh
        insert or SYN retransmission), ``False`` when the ``reject-new``
        policy refused it; the caller counts the refusal.
        """
        index = self._index_for(entry.flow)
        bucket = self._buckets[index]
        if self.lifetime is not None:
            self._reap((bucket,), entry.created_at - self.lifetime)
        if entry.flow in bucket:
            return True  # SYN retransmission
        # Without a budget, max_entries is the structural capacity, which
        # the live count reaches only when every bucket is full.
        if len(bucket) >= self.bucket_limit or self._live >= self.max_entries:
            if self.policy == "reject-new":
                return False
            self._evict_one(index, bucket)
        bucket[entry.flow] = entry
        self._live += 1
        counts = self.counters._values
        counts["SynCacheAdded"] = counts.get("SynCacheAdded", 0) + 1
        return True

    def _evict_one(self, index: int,
                   bucket: "OrderedDict[Flow, CacheEntry]") -> None:
        """Evict one record to make room for an insert into *bucket*.

        The victim normally comes from the target bucket itself; only
        when the *budget* forced the eviction and the target bucket is
        empty does the scan walk forward (deterministic bucket order)
        to the next non-empty bucket. The caller guarantees at least
        one record is resident, so the walk terminates.
        """
        while not bucket:
            index = (index + 1) % self.bucket_count
            bucket = self._buckets[index]
        if self.policy == "random-evict":
            del bucket[self._rng.choice(list(bucket))]
        else:
            bucket.popitem(last=False)
        self._live -= 1
        counts = self.counters._values
        counts["SynCacheEvictions"] = counts.get("SynCacheEvictions", 0) + 1

    def complete(self, flow: Flow) -> Optional[CacheEntry]:
        """Remove and return the record for a completing ACK."""
        entry = self._buckets[self._index_for(flow)].pop(flow, None)
        if entry is not None:
            self._live -= 1
            counts = self.counters._values
            counts["SynCacheHits"] = counts.get("SynCacheHits", 0) + 1
        return entry

    # ------------------------------------------------------------------
    # Expiry
    # ------------------------------------------------------------------
    def _reap(self, buckets: Iterable["OrderedDict[Flow, CacheEntry]"],
              cutoff: float) -> int:
        """Drop the records created before *cutoff* from *buckets*."""
        reaped = 0
        for bucket in buckets:
            stale = [flow for flow, e in bucket.items()
                     if e.created_at < cutoff]
            for flow in stale:
                del bucket[flow]
            reaped += len(stale)
        if reaped:
            self._live -= reaped
            counts = self.counters._values
            counts["SynCacheExpired"] = (counts.get("SynCacheExpired", 0)
                                         + reaped)
        return reaped

    def expire_older_than(self, cutoff: float) -> int:
        """Reap entries created before *cutoff*; returns the count."""
        return self._reap(self._buckets, cutoff)

    def expire_shard_older_than(self, shard_index: int,
                                cutoff: float) -> int:
        """Reap one stripe's stale entries (buckets ``shard_index``,
        ``shard_index + shard_count``, ...) — the rotating reaper's sweep
        unit, so each tick touches ``buckets/shard_count`` buckets
        instead of the whole table."""
        stripes = self.shard_count
        if not 0 <= shard_index < stripes:
            raise SimulationError(
                f"shard index {shard_index} out of range [0, {stripes})")
        return self._reap(self._buckets[shard_index::stripes], cutoff)

    def oldest_created_at(self) -> Optional[float]:
        """Creation time of the oldest live record (None when empty).

        O(n); used by the runtime invariant checker to assert that the
        reaper keeps every record younger than its lifetime bound.
        """
        oldest: Optional[float] = None
        for bucket in self._buckets:
            for entry in bucket.values():
                if oldest is None or entry.created_at < oldest:
                    oldest = entry.created_at
        return oldest

    # ------------------------------------------------------------------
    # Pressure retuning
    # ------------------------------------------------------------------
    def set_bucket_limit(self, limit: int) -> int:
        """Retune the per-bucket bound, evicting oldest-first on shrink.

        The memory-pressure injector uses this to model the cache losing
        pages mid-attack. Returns how many records were evicted.
        """
        if limit < 1:
            raise SimulationError(f"bucket_limit must be >= 1, got {limit}")
        reaped = 0
        for bucket in self._buckets:
            while len(bucket) > limit:
                bucket.popitem(last=False)
                reaped += 1
        if reaped:
            self._live -= reaped
            counts = self.counters._values
            counts["SynCacheEvictions"] = (counts.get("SynCacheEvictions", 0)
                                           + reaped)
        self.bucket_limit = limit
        self._set_max_entries()
        return reaped
