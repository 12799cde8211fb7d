"""BSD-style SYN cache (Lemon 2002) — the paper's other §2.1 baseline.

Instead of a full TCB per half-open connection, the cache keeps a compact
record in a fixed-size hash table with per-bucket bounds. When a bucket
overflows, an entry in that bucket is evicted — which is exactly why the
paper notes caches fail against large botnets: sufficient attack rate
simply churns the cache.

This module grew from the flat 512×30 table the paper discusses into the
state representation the overload ladder (:mod:`repro.tcp.overload`)
drives:

* **Shards.** The bucket array is split across a power-of-two number of
  shards (bucket ``i`` belongs to shard ``i & (shard_count - 1)``).
  The simulator is single-threaded, so shards carry no locks — what they
  carry is shard-local accounting (`ShardStats`) and a shard-granular
  expiry API (:meth:`SynCache.expire_shard_older_than`) so a reaper can
  sweep one shard per timer-wheel tick instead of stalling on the whole
  table.
* **Pluggable overflow policies.** ``oldest-per-bucket`` is the
  historical behaviour and the default — byte-identical to the pre-shard
  cache, counter for counter. ``random-evict`` picks the victim with a
  :mod:`repro.sim.rng` stream (deterministic per seed). ``reject-new``
  refuses the insert instead of evicting, the conservative policy a
  kernel under memory pressure prefers.
* **Memory budget.** ``memory_budget`` (bytes) bounds the resident
  entries below the structural ``bucket_count × bucket_limit`` capacity
  (at ``entry_bytes`` per record); occupancy is exported in bytes so
  telemetry can chart cache pressure against the budget.
* **Lazy TTL.** With ``lifetime`` set, bucket probes purge entries that
  have outlived it before doing their own work, so a cache can stay
  fresh even between reaper sweeps.

The paper discusses but does not evaluate the cache; we include it so the
ablation benchmarks can compare all four server configurations.
"""

from __future__ import annotations

import hashlib
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError

Flow = Tuple[int, int, int]  # (remote_ip, remote_port, local_port)

#: Overflow policies, in documentation order. ``oldest-per-bucket`` is
#: the pre-shard behaviour and stays the default.
OVERFLOW_POLICIES: Tuple[str, ...] = (
    "oldest-per-bucket", "random-evict", "reject-new")

#: Nominal bytes one resident record costs — the compact syncache struct
#: plus hash-table overhead, far below a full TCB (the whole point of
#: Lemon's design). Used for the memory-budget arithmetic.
ENTRY_BYTES = 64


@dataclass(slots=True)
class CacheEntry:
    """Compact half-open record (a fraction of a full TCB)."""

    flow: Flow
    remote_isn: int
    local_isn: int
    mss: int
    wscale: Optional[int]
    created_at: float


@dataclass(slots=True)
class ShardStats:
    """Shard-local accounting (the simulator is single-threaded, so
    shards need no locks — only their own counters)."""

    insertions: int = 0
    completions: int = 0
    evictions: int = 0
    expired: int = 0
    rejected: int = 0
    live: int = 0

    def as_payload(self) -> Dict[str, int]:
        return {
            "insertions": self.insertions,
            "completions": self.completions,
            "evictions": self.evictions,
            "expired": self.expired,
            "rejected": self.rejected,
            "live": self.live,
        }


def _default_shard_count(bucket_count: int) -> int:
    """Largest power of two ≤ min(8, bucket_count)."""
    count = 1
    while count * 2 <= min(8, bucket_count):
        count *= 2
    return count


class SynCache:
    """Sharded, bounded half-open cache with pluggable eviction."""

    def __init__(self, bucket_count: int = 512,
                 bucket_limit: int = 30,
                 secret: bytes = b"syncache",
                 shard_count: Optional[int] = None,
                 policy: str = "oldest-per-bucket",
                 rng: Optional[random.Random] = None,
                 memory_budget: Optional[int] = None,
                 entry_bytes: int = ENTRY_BYTES,
                 lifetime: Optional[float] = None) -> None:
        if bucket_count < 1 or bucket_limit < 1:
            raise SimulationError("bucket_count and bucket_limit must be >=1")
        if policy not in OVERFLOW_POLICIES:
            raise SimulationError(
                f"unknown overflow policy {policy!r} "
                f"(choose from {', '.join(OVERFLOW_POLICIES)})")
        if shard_count is None:
            shard_count = _default_shard_count(bucket_count)
        if shard_count < 1 or shard_count & (shard_count - 1):
            raise SimulationError(
                f"shard_count must be a power of two, got {shard_count!r}")
        if shard_count > bucket_count:
            raise SimulationError(
                f"shard_count {shard_count} exceeds bucket_count "
                f"{bucket_count}")
        if memory_budget is not None and memory_budget < entry_bytes:
            raise SimulationError(
                f"memory_budget {memory_budget} cannot hold even one "
                f"{entry_bytes}-byte entry")
        if entry_bytes < 1:
            raise SimulationError(
                f"entry_bytes must be >= 1, got {entry_bytes!r}")
        if lifetime is not None and lifetime <= 0:
            raise SimulationError(
                f"lifetime must be positive, got {lifetime!r}")
        self.bucket_count = bucket_count
        self.bucket_limit = bucket_limit
        self.policy = policy
        self.shard_count = shard_count
        self.memory_budget = memory_budget
        self.entry_bytes = entry_bytes
        self.lifetime = lifetime
        self._secret = secret
        self._shard_mask = shard_count - 1
        self._buckets: List["OrderedDict[Flow, CacheEntry]"] = [
            OrderedDict() for _ in range(bucket_count)
        ]
        self.shards: List[ShardStats] = [
            ShardStats() for _ in range(shard_count)
        ]
        self._live = 0
        if rng is None and policy == "random-evict":
            # Deterministic fallback when no repro.sim.rng stream is
            # supplied: derive the seed from the bucket-hash secret.
            rng = random.Random(int.from_bytes(
                hashlib.sha256(self._secret + b"/evict").digest()[:8],
                "big"))
        self._rng = rng
        #: Optional repro.obs CounterScope (attached by the listener).
        self.mib = None

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _index_for(self, flow: Flow) -> int:
        material = (self._secret
                    + flow[0].to_bytes(4, "big")
                    + flow[1].to_bytes(2, "big")
                    + flow[2].to_bytes(2, "big"))
        digest = hashlib.sha256(material).digest()
        return int.from_bytes(digest[:4], "big") % self.bucket_count

    def _bucket_for(self, flow: Flow) -> "OrderedDict[Flow, CacheEntry]":
        return self._buckets[self._index_for(flow)]

    def shard_for(self, flow: Flow) -> int:
        """Which shard owns *flow*'s bucket."""
        return self._index_for(flow) & self._shard_mask

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        # Maintained incrementally on every insert/complete/evict/expire
        # — O(1), where the pre-shard cache summed every bucket. The
        # syncache_churn micro-benchmark asserts it against a recount.
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

    @property
    def max_entries(self) -> int:
        """Effective bound: structural capacity clipped by the budget."""
        if self.memory_budget is None:
            return self.capacity
        return min(self.capacity, self.memory_budget // self.entry_bytes)

    @property
    def occupancy_bytes(self) -> int:
        """Resident entries at ``entry_bytes`` each — what the memory
        budget bounds and telemetry charts."""
        return self._live * self.entry_bytes

    @property
    def occupancy_fraction(self) -> float:
        """Fill fraction of the *effective* capacity (watermark input)."""
        limit = self.max_entries
        return self._live / limit if limit else 1.0

    # ------------------------------------------------------------------
    # Aggregate counters (sum of the shard-local ones)
    # ------------------------------------------------------------------
    @property
    def insertions(self) -> int:
        return sum(shard.insertions for shard in self.shards)

    @property
    def completions(self) -> int:
        return sum(shard.completions for shard in self.shards)

    @property
    def evictions(self) -> int:
        return sum(shard.evictions for shard in self.shards)

    @property
    def expired(self) -> int:
        return sum(shard.expired for shard in self.shards)

    @property
    def rejected(self) -> int:
        """Inserts refused by the ``reject-new`` policy."""
        return sum(shard.rejected for shard in self.shards)

    def shard_stats(self) -> List[Dict[str, int]]:
        """Shard-local accounting snapshots, shard order."""
        return [shard.as_payload() for shard in self.shards]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, entry: CacheEntry) -> bool:
        """Add a half-open record, applying the overflow policy if the
        bucket (or the memory budget) is full.

        Returns ``True`` when the record is resident afterwards (fresh
        insert or SYN retransmission), ``False`` when the ``reject-new``
        policy refused it.
        """
        index = self._index_for(entry.flow)
        bucket = self._buckets[index]
        shard = self.shards[index & self._shard_mask]
        if self.lifetime is not None:
            self._lazy_expire(index, bucket, shard,
                              entry.created_at - self.lifetime)
        if entry.flow in bucket:
            return True  # SYN retransmission
        over_budget = (self.memory_budget is not None
                       and self._live >= self.max_entries)
        if len(bucket) >= self.bucket_limit or over_budget:
            if self.policy == "reject-new":
                shard.rejected += 1
                return False
            self._evict_one(index, bucket)
        bucket[entry.flow] = entry
        shard.insertions += 1
        shard.live += 1
        self._live += 1
        if self.mib is not None:
            self.mib.incr("SynCacheAdded")
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
        victim_index = index
        if not bucket:
            victim_index = (index + 1) % self.bucket_count
            while not self._buckets[victim_index]:
                victim_index = (victim_index + 1) % self.bucket_count
            bucket = self._buckets[victim_index]
        if self.policy == "random-evict":
            victim = self._rng.choice(list(bucket))
            del bucket[victim]
        else:
            bucket.popitem(last=False)
        shard = self.shards[victim_index & self._shard_mask]
        shard.evictions += 1
        shard.live -= 1
        self._live -= 1
        if self.mib is not None:
            self.mib.incr("SynCacheEvictions")

    def complete(self, flow: Flow) -> Optional[CacheEntry]:
        """Remove and return the record for a completing ACK."""
        index = self._index_for(flow)
        bucket = self._buckets[index]
        entry = bucket.pop(flow, None)
        if entry is not None:
            shard = self.shards[index & self._shard_mask]
            shard.completions += 1
            shard.live -= 1
            self._live -= 1
            if self.mib is not None:
                self.mib.incr("SynCacheHits")
        return entry

    # ------------------------------------------------------------------
    # Expiry
    # ------------------------------------------------------------------
    def _lazy_expire(self, index: int,
                     bucket: "OrderedDict[Flow, CacheEntry]",
                     shard: ShardStats, cutoff: float) -> None:
        stale = [flow for flow, e in bucket.items()
                 if e.created_at < cutoff]
        if not stale:
            return
        for flow in stale:
            del bucket[flow]
        reaped = len(stale)
        shard.expired += reaped
        shard.live -= reaped
        self._live -= reaped
        if self.mib is not None:
            self.mib.incr("SynCacheExpired", reaped)

    def expire_older_than(self, cutoff: float) -> int:
        """Reap entries created before *cutoff*; returns the count."""
        reaped = 0
        for shard_index in range(self.shard_count):
            reaped += self.expire_shard_older_than(shard_index, cutoff)
        return reaped

    def expire_shard_older_than(self, shard_index: int,
                                cutoff: float) -> int:
        """Reap one shard's stale entries — the timer-wheel-friendly
        sweep unit: a rotating reaper touches ``buckets/shards`` buckets
        per tick instead of the whole table."""
        if not 0 <= shard_index < self.shard_count:
            raise SimulationError(
                f"shard index {shard_index} out of range "
                f"[0, {self.shard_count})")
        shard = self.shards[shard_index]
        reaped = 0
        for index in range(shard_index, self.bucket_count,
                           self.shard_count):
            bucket = self._buckets[index]
            stale = [flow for flow, e in bucket.items()
                     if e.created_at < cutoff]
            for flow in stale:
                del bucket[flow]
                reaped += 1
        shard.expired += reaped
        shard.live -= reaped
        self._live -= reaped
        if reaped and self.mib is not None:
            self.mib.incr("SynCacheExpired", reaped)
        return reaped

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
        for index, bucket in enumerate(self._buckets):
            shard = self.shards[index & self._shard_mask]
            while len(bucket) > limit:
                bucket.popitem(last=False)
                shard.evictions += 1
                shard.live -= 1
                reaped += 1
        self._live -= reaped
        if reaped and self.mib is not None:
            self.mib.incr("SynCacheEvictions", reaped)
        self.bucket_limit = limit
        return reaped
