"""SYN-cache baseline tests."""

import pytest

from repro.errors import SimulationError
from repro.tcp.syncache import CacheEntry, SynCache


def _entry(ip=1, port=1000, created=0.0):
    return CacheEntry(flow=(ip, port, 80), remote_isn=1, local_isn=2,
                      mss=1460, wscale=7, created_at=created)


class TestSynCache:
    def test_insert_and_complete(self):
        cache = SynCache(bucket_count=8, bucket_limit=4)
        entry = _entry()
        cache.insert(entry)
        assert len(cache) == 1
        assert cache.complete(entry.flow) is entry
        assert len(cache) == 0
        assert cache.completions == 1

    def test_duplicate_insert_ignored(self):
        cache = SynCache(bucket_count=8, bucket_limit=4)
        cache.insert(_entry())
        cache.insert(_entry())
        assert len(cache) == 1

    def test_bucket_overflow_evicts_oldest(self):
        cache = SynCache(bucket_count=1, bucket_limit=2)
        first = _entry(ip=1)
        cache.insert(first)
        cache.insert(_entry(ip=2))
        cache.insert(_entry(ip=3))
        assert cache.evictions == 1
        assert cache.complete(first.flow) is None  # churned out

    def test_eviction_is_per_bucket(self):
        """Flows hashing to different buckets do not evict each other."""
        cache = SynCache(bucket_count=64, bucket_limit=1)
        entries = [_entry(ip=i) for i in range(20)]
        for entry in entries:
            cache.insert(entry)
        assert len(cache) + cache.evictions == 20

    def test_expiry(self):
        cache = SynCache(bucket_count=8, bucket_limit=4)
        cache.insert(_entry(ip=1, created=0.0))
        cache.insert(_entry(ip=2, created=5.0))
        assert cache.expire_older_than(3.0) == 1
        assert len(cache) == 1

    def test_capacity(self):
        assert SynCache(bucket_count=512, bucket_limit=30).capacity == \
            512 * 30

    def test_validation(self):
        with pytest.raises(SimulationError):
            SynCache(bucket_count=0)
        with pytest.raises(SimulationError):
            SynCache(bucket_limit=0)

    def test_churn_under_flood_is_the_weakness(self):
        """§2.1: attack rate beyond capacity churns the whole cache."""
        cache = SynCache(bucket_count=16, bucket_limit=4)
        benign = _entry(ip=0xFFFF)
        cache.insert(benign)
        for i in range(10_000):
            cache.insert(_entry(ip=i, port=2000 + (i % 1000)))
        assert cache.complete(benign.flow) is None


class TestShardsAndOccupancy:
    def test_default_shard_count_is_a_power_of_two(self):
        assert SynCache(bucket_count=512).shard_count == 8
        assert SynCache(bucket_count=4).shard_count == 4
        assert SynCache(bucket_count=3).shard_count == 2
        assert SynCache(bucket_count=1).shard_count == 1

    def test_len_is_incremental_and_matches_recount(self):
        cache = SynCache(bucket_count=16, bucket_limit=2)
        for i in range(200):
            cache.insert(_entry(ip=i, created=i * 0.01))
            if i % 3 == 0:
                cache.complete((i, 1000, 80))
            if i % 50 == 49:
                cache.expire_older_than((i - 80) * 0.01)
            assert len(cache) == cache.occupancy_recount()

    def test_shard_scoped_expiry_leaves_other_shards_alone(self):
        cache = SynCache(bucket_count=16, bucket_limit=16)
        assert cache.shard_count == 8   # two buckets per stripe
        for i in range(128):
            cache.insert(_entry(ip=i, created=0.0))
        before = len(cache)
        reaped = cache.expire_shard_older_than(0, cutoff=1.0)
        assert reaped > 0
        assert len(cache) == before - reaped
        assert cache.expired == reaped
        # Only stripe 0's buckets may be empty now.
        for index in range(cache.bucket_count):
            if index % cache.shard_count != 0:
                assert len(cache._buckets[index]) > 0
        with pytest.raises(SimulationError):
            cache.expire_shard_older_than(cache.shard_count, cutoff=1.0)

    def test_lazy_expiry_on_insert(self):
        cache = SynCache(bucket_count=1, bucket_limit=8, lifetime=1.0)
        cache.insert(_entry(ip=1, created=0.0))
        cache.insert(_entry(ip=2, created=5.0))  # probe reaps ip=1
        assert cache.expired == 1
        assert len(cache) == 1


class TestOverflowPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(SimulationError):
            SynCache(policy="newest-first")

    def test_reject_new_refuses_and_counts(self):
        cache = SynCache(bucket_count=1, bucket_limit=2,
                         policy="reject-new")
        first = _entry(ip=1)
        assert cache.insert(first)
        assert cache.insert(_entry(ip=2))
        counts = cache.counters.snapshot()
        assert not cache.insert(_entry(ip=3))
        assert cache.counters.snapshot() == counts  # the caller counts it
        assert cache.evictions == 0
        assert cache.insertions == 2       # the reject is not an insert
        assert cache.complete(first.flow) is first  # resident survived

    def test_random_evict_is_seeded_and_deterministic(self):
        import random

        def churn(rng):
            cache = SynCache(bucket_count=1, bucket_limit=4,
                             policy="random-evict", rng=rng)
            for i in range(100):
                cache.insert(_entry(ip=i))
            return sorted(flow for flow in cache._buckets[0])

        assert churn(random.Random(7)) == churn(random.Random(7))
        assert churn(random.Random(7)) != churn(random.Random(8))

    def test_random_evict_default_rng_is_reproducible(self):
        def churn():
            cache = SynCache(bucket_count=1, bucket_limit=4,
                             policy="random-evict")
            for i in range(100):
                cache.insert(_entry(ip=i))
            return sorted(flow for flow in cache._buckets[0])

        assert churn() == churn()

    def test_default_policy_evicts_bucket_oldest(self):
        cache = SynCache(bucket_count=1, bucket_limit=2)
        first = _entry(ip=1)
        cache.insert(first)
        cache.insert(_entry(ip=2))
        cache.insert(_entry(ip=3))
        assert cache.complete(first.flow) is None
        assert cache.complete((2, 1000, 80)) is not None


class TestMemoryBudget:
    def test_max_entries_is_budget_clipped(self):
        from repro.tcp.syncache import ENTRY_BYTES

        cache = SynCache(bucket_count=64, bucket_limit=8,
                         memory_budget=10 * ENTRY_BYTES)
        assert cache.max_entries == 10
        assert cache.capacity == 512       # structural bound unchanged

    def test_budget_forces_eviction_before_buckets_fill(self):
        from repro.tcp.syncache import ENTRY_BYTES

        cache = SynCache(bucket_count=64, bucket_limit=8,
                         memory_budget=10 * ENTRY_BYTES)
        for i in range(50):
            cache.insert(_entry(ip=i))
        assert len(cache) <= 10
        assert len(cache) == cache.occupancy_recount()
        assert cache.occupancy_bytes == len(cache) * ENTRY_BYTES
        assert cache.evictions == 50 - len(cache)

    def test_budget_with_reject_new_refuses(self):
        from repro.tcp.syncache import ENTRY_BYTES

        cache = SynCache(bucket_count=64, bucket_limit=8,
                         policy="reject-new",
                         memory_budget=10 * ENTRY_BYTES)
        refused = sum(not cache.insert(_entry(ip=i)) for i in range(50))
        assert len(cache) == 10
        assert refused == 40
        assert cache.counters.snapshot() == {"SynCacheAdded": 10}

    def test_occupancy_fraction_uses_effective_capacity(self):
        from repro.tcp.syncache import ENTRY_BYTES

        cache = SynCache(bucket_count=64, bucket_limit=8,
                         memory_budget=10 * ENTRY_BYTES)
        for i in range(5):
            cache.insert(_entry(ip=i))
        assert cache.occupancy_fraction == pytest.approx(0.5)


class TestDefaultPolicyEquivalence:
    """The reworked cache must be byte-identical to the pre-PR one on
    the default policy — same counters, same resident flows, in the same
    bucket order — under an adversarial insert/complete/expire mix."""

    def _drive(self, cache):
        import random

        rng = random.Random(99)
        log = []
        for step in range(3000):
            roll = rng.random()
            if roll < 0.70:
                entry = _entry(ip=rng.getrandbits(16),
                               port=1024 + rng.getrandbits(10),
                               created=step * 1e-3)
                cache.insert(entry)
                log.append(("insert", entry.flow))
            elif roll < 0.90:
                flow = (rng.getrandbits(16), 1024 + rng.getrandbits(10),
                        80)
                found = cache.complete(flow)
                log.append(("complete", flow, found is not None))
            else:
                cache.expire_older_than((step - 400) * 1e-3)
                log.append(("expire", step))
        residents = [tuple(bucket) for bucket in cache._buckets]
        counters = (cache.insertions, cache.completions, cache.evictions,
                    cache.expired, len(cache))
        return log, residents, counters

    def test_byte_identical_to_seed_implementation(self):
        new = self._drive(SynCache(bucket_count=32, bucket_limit=3))
        legacy = self._drive(_SeedSynCache(bucket_count=32,
                                           bucket_limit=3))
        assert new == legacy


class _SeedSynCache:
    """The pre-PR SynCache, verbatim semantics: flat buckets, global
    counters, oldest-per-bucket eviction (kept here as the equivalence
    oracle for :class:`TestDefaultPolicyEquivalence`)."""

    def __init__(self, bucket_count=512, bucket_limit=30,
                 secret=b"syncache"):
        import hashlib
        from collections import OrderedDict

        self._sha256 = hashlib.sha256
        self.bucket_count = bucket_count
        self.bucket_limit = bucket_limit
        self._secret = secret
        self._buckets = [OrderedDict() for _ in range(bucket_count)]
        self.evictions = 0
        self.insertions = 0
        self.completions = 0
        self.expired = 0

    def _bucket_for(self, flow):
        material = (self._secret + flow[0].to_bytes(4, "big")
                    + flow[1].to_bytes(2, "big")
                    + flow[2].to_bytes(2, "big"))
        digest = self._sha256(material).digest()
        return self._buckets[int.from_bytes(digest[:4], "big")
                             % self.bucket_count]

    def __len__(self):
        return sum(len(b) for b in self._buckets)

    def insert(self, entry):
        bucket = self._bucket_for(entry.flow)
        if entry.flow in bucket:
            return
        if len(bucket) >= self.bucket_limit:
            bucket.popitem(last=False)
            self.evictions += 1
        bucket[entry.flow] = entry
        self.insertions += 1

    def complete(self, flow):
        entry = self._bucket_for(flow).pop(flow, None)
        if entry is not None:
            self.completions += 1
        return entry

    def expire_older_than(self, cutoff):
        reaped = 0
        for bucket in self._buckets:
            stale = [flow for flow, e in bucket.items()
                     if e.created_at < cutoff]
            for flow in stale:
                del bucket[flow]
                reaped += 1
        self.expired += reaped
        return reaped
