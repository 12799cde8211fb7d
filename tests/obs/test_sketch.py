"""Sketch tests: Space-Saving / Count-Min guarantees, bounded memory,
the heap eviction against the original full scan, the batched
Count-Min fold against the original per-key update, and exact-vs-sketch
agreement against real flood scenarios."""

import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.obs import CountMinSketch, SpaceSaving, SourceAttribution
from repro.obs.counters import DROP_CAUSES
from repro.obs.sketch import _FOLD_BATCH
from repro.obs.timeseries import TelemetrySpec

_MASK64 = (1 << 64) - 1


def _zipf_stream(n_keys, n_updates, seed=7):
    """A skewed key stream: low keys are heavy, tail keys are rare."""
    rng = random.Random(seed)
    return [min(int(rng.paretovariate(1.2)), n_keys) + 0x0A000000
            for _ in range(n_updates)]


class _ScanSpaceSaving(SpaceSaving):
    """Reference oracle: the original O(capacity) eviction scan, kept
    verbatim except that it returns the key's reported count, as
    ``SpaceSaving.update`` does. It never touches the inherited
    ``_heap``."""

    def update(self, key: int, n: int = 1) -> int:
        counts = self._counts
        self.total += n
        if key in counts:
            counts[key] += n
            return counts[key]
        if len(counts) < self.capacity:
            counts[key] = n
            self._errors[key] = 0
            return n
        # Recycle the minimum-count slot; ties break on the smaller key
        # so eviction order is deterministic across runs and platforms.
        victim = min(counts, key=lambda k: (counts[k], k))
        floor = counts.pop(victim)
        self._errors.pop(victim)
        counts[key] = floor + n
        self._errors[key] = floor
        self.evictions += 1
        return floor + n


class _KeyedCountMin(CountMinSketch):
    """Reference oracle: the original per-key Count-Min update, kept
    verbatim over list rows. It never touches the inherited buffer."""

    def __init__(self, width: int, depth: int, seed: int = 0) -> None:
        super().__init__(width, depth, seed)
        self._rows = [[0] * self.width for _ in range(self.depth)]

    def _index(self, row: int, key: int) -> int:
        return ((self._a[row] * key + self._b[row]) & _MASK64) \
            >> self._shift

    def update(self, key: int) -> None:
        """Count one occurrence of *key*."""
        self.total += 1
        for row in range(self.depth):
            self._rows[row][self._index(row, key)] += 1

    def estimate(self, key: int) -> int:
        """Point estimate for *key*: never below the true count."""
        return min(self._rows[row][self._index(row, key)]
                   for row in range(self.depth))


def _hostile_keys(seed, length):
    """Keys the multiply-shift hash must reduce mod 2**64: negative
    keys, keys at and above 2**64, /32 addresses, and repeats."""
    rng = random.Random(seed)
    pool = [rng.randrange(-(1 << 70), 1 << 70) for _ in range(8)]
    keys = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.3:
            keys.append(rng.choice(pool))
        elif roll < 0.5:
            keys.append(rng.getrandbits(32))
        elif roll < 0.7:
            keys.append(-rng.getrandbits(66))
        else:
            keys.append((1 << 64) + rng.getrandbits(70))
    return keys


def _mixed_stream(seed, length, fresh_share, alpha):
    """Never-repeating keys (spoofed sources) interleaved with
    Pareto-skewed repeats over a small key range (heavy sources)."""
    rng = random.Random(seed)
    fresh = 1 << 24
    stream = []
    for _ in range(length):
        if rng.random() < fresh_share:
            fresh += 1
            stream.append(fresh)
        else:
            stream.append(min(int(rng.paretovariate(alpha)), 64))
    return stream


class TestSpaceSaving:
    def test_exact_while_under_capacity(self):
        sketch = SpaceSaving(capacity=8)
        truth = {}
        for key in [1, 2, 1, 3, 1, 2]:
            sketch.update(key)
            truth[key] = truth.get(key, 0) + 1
        for key, count in truth.items():
            assert sketch.count(key) == count
            assert sketch.error(key) == 0
        assert sketch.evictions == 0
        assert sketch.top() == [(1, 3, 0), (2, 2, 0), (3, 1, 0)]

    def test_overestimates_within_tracked_error(self):
        sketch = SpaceSaving(capacity=8)
        stream = _zipf_stream(n_keys=200, n_updates=5000)
        truth = {}
        for key in stream:
            sketch.update(key)
            truth[key] = truth.get(key, 0) + 1
        for key, count, error in sketch.top():
            true = truth[key]
            assert true <= count <= true + error

    def test_heavy_hitters_survive_eviction(self):
        # One key carrying >N/capacity of the stream must be retained.
        sketch = SpaceSaving(capacity=4)
        for i in range(1000):
            sketch.update(99)
            sketch.update(i + 1000)  # churn of distinct tail keys
        assert 99 in sketch
        assert sketch.top(1)[0][0] == 99

    def test_memory_bounded_independent_of_key_count(self):
        sketch = SpaceSaving(capacity=16)
        for key in range(100_000):
            sketch.update(key)
        assert len(sketch) == 16
        assert sketch.total == 100_000
        assert sketch.evictions == 100_000 - 16

    def test_deterministic_across_runs(self):
        stream = _zipf_stream(n_keys=500, n_updates=3000)

        def digest():
            sketch = SpaceSaving(capacity=8)
            for key in stream:
                sketch.update(key)
            return json.dumps(sketch.as_payload(), sort_keys=True)

        assert digest() == digest()

    def test_rejects_zero_capacity(self):
        with pytest.raises(SimulationError):
            SpaceSaving(0)


class TestHeapMatchesScan:
    """The heap eviction picks exactly the victim the original scan
    picked: same smallest count, same tie-break on the smaller key."""

    @given(capacity=st.integers(1, 16),
           seed=st.integers(0, 2**32 - 1),
           length=st.integers(0, 400),
           fresh_share=st.floats(0.0, 1.0),
           alpha=st.floats(0.5, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_every_update_matches_reference(self, capacity, seed, length,
                                            fresh_share, alpha):
        sketch = SpaceSaving(capacity)
        reference = _ScanSpaceSaving(capacity)
        for key in _mixed_stream(seed, length, fresh_share, alpha):
            reported = sketch.update(key)
            assert reference.update(key) == reported == sketch.count(key)
            assert sketch._counts == reference._counts
            assert sketch._errors == reference._errors
            assert sketch.evictions == reference.evictions
            assert sketch.total == reference.total
            assert sketch.top() == reference.top()
            assert len(sketch._heap) == len(sketch._counts)

    def test_ladder_payload_matches_reference(self, monkeypatch):
        """The attribution and admission-control snapshots of a whole
        ladder cell are byte-identical under the reference scan."""
        from repro.experiments.scenario import Scenario
        from repro.experiments.summary import summarize

        def payload():
            result = Scenario(_ladder_config()).run()
            body = json.dumps(summarize(result).as_payload(),
                              sort_keys=True)
            return result, body

        _, heap_payload = payload()
        monkeypatch.setattr("repro.obs.sketch.SpaceSaving",
                            _ScanSpaceSaving)
        monkeypatch.setattr("repro.tcp.overload.SpaceSaving",
                            _ScanSpaceSaving)
        result, scan_payload = payload()
        assert type(result.attribution.syns) is _ScanSpaceSaving
        admission = result.server_app.listener.admission
        assert type(admission.sources) is _ScanSpaceSaving
        assert result.attribution.syns.evictions > 0
        assert admission.sources.evictions > 0
        assert scan_payload == heap_payload


class TestCountMinSketch:
    def test_never_undercounts(self):
        sketch = CountMinSketch(width=64, depth=4, seed=3)
        stream = _zipf_stream(n_keys=300, n_updates=4000)
        truth = {}
        for key in stream:
            sketch.update(key)
            truth[key] = truth.get(key, 0) + 1
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_error_bound_holds_in_aggregate(self):
        sketch = CountMinSketch(width=256, depth=4, seed=3)
        stream = _zipf_stream(n_keys=300, n_updates=4000)
        truth = {}
        for key in stream:
            sketch.update(key)
            truth[key] = truth.get(key, 0) + 1
        bound = sketch.error_bound()
        # The e/width × N bound holds per key with prob 1 - e^-depth
        # (~98% at depth 4); allow the expected handful of misses.
        misses = sum(1 for key, count in truth.items()
                     if sketch.estimate(key) - count > bound)
        assert misses <= max(1, len(truth) // 20)

    def test_width_rounds_up_to_power_of_two(self):
        assert CountMinSketch(width=100, depth=2).width == 128
        assert CountMinSketch(width=128, depth=2).width == 128

    def test_seeded_hashing_is_process_independent(self):
        a = CountMinSketch(width=64, depth=4, seed=11)
        b = CountMinSketch(width=64, depth=4, seed=11)
        for key in range(500):
            a.update(key)
            b.update(key)
        assert all(a.estimate(k) == b.estimate(k) for k in range(500))

    def test_rejects_bad_shape(self):
        with pytest.raises(SimulationError):
            CountMinSketch(width=0, depth=1)


class TestBatchedFoldMatchesPerKey:
    """Buffered keys folded in numpy batches leave exactly the rows and
    estimates of the per-key update: Count-Min updates commute, and
    uint64 arithmetic wraps mod 2**64 as the per-key hash masks it."""

    @given(width=st.sampled_from([1, 2, 3, 512]),
           depth=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1),
           segments=st.lists(
               st.tuples(
                   st.lists(st.one_of(
                       st.integers(-(1 << 72), 1 << 72),
                       st.sampled_from([0, 1, -1, _MASK64, 1 << 64,
                                        -(1 << 64), (1 << 64) + 1])),
                       max_size=8),
                   st.integers(0, _FOLD_BATCH + 300),
                   st.integers(0, 2**32 - 1)),
               min_size=1, max_size=4))
    @settings(deadline=None, max_examples=40, derandomize=True)
    def test_rows_and_estimates_match_after_every_read(
            self, width, depth, seed, segments):
        sketch = CountMinSketch(width, depth, seed)
        oracle = _KeyedCountMin(width, depth, seed)
        # Width 1 leaves no column bits: the shift is the full 64.
        assert (sketch._shift == 64) == (width == 1)
        seen = set()
        for drawn, filler, filler_seed in segments:
            keys = drawn + _hostile_keys(filler_seed, filler) + drawn
            for key in keys:
                sketch.update(key)
                oracle.update(key)
            assert len(sketch._pending) < _FOLD_BATCH
            seen.update(keys)
            assert sketch.total == oracle.total
            for key in sorted(seen):
                assert sketch.estimate(key) == oracle.estimate(key)
            assert sketch._rows.tolist() == oracle._rows

    def test_pickled_pending_keys_unpickle_to_same_estimates(self):
        sketch = CountMinSketch(width=64, depth=4, seed=3)
        oracle = _KeyedCountMin(64, 4, 3)
        keys = _hostile_keys(11, _FOLD_BATCH + 200)
        for key in keys:
            sketch.update(key)
            oracle.update(key)
        assert len(sketch._pending) == 200
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone.total == oracle.total
        for key in set(keys):
            assert clone.estimate(key) == oracle.estimate(key)
        assert clone._rows.tolist() == oracle._rows


class TestSourceAttribution:
    def test_prefix_masking_aggregates_sources(self):
        attribution = SourceAttribution(prefix_bits=24)
        a = 0x0A010005  # 10.1.0.5
        b = 0x0A010006  # 10.1.0.6 — same /24
        attribution.on_syn(a)
        attribution.on_syn(b)
        key = attribution.key_for(a)
        assert key == attribution.key_for(b)
        assert attribution.syns.count(key) == 2

    def test_drops_by_cause_bounded_by_catalogue(self):
        attribution = SourceAttribution(top_k=4)
        for i in range(100):
            attribution.on_drop(i, "ListenOverflows")
            attribution.on_drop(i, "PuzzlesRejected")
        assert sorted(attribution.drops_by_cause) == [
            "ListenOverflows", "PuzzlesRejected"]
        assert len(attribution.drops_by_cause["ListenOverflows"]) == 4

    def test_snapshot_renders_dotted_quads(self):
        attribution = SourceAttribution()
        attribution.on_syn(0x0A010005)
        snapshot = attribution.snapshot()
        assert snapshot["syns"]["top"][0]["source"] == "10.1.0.5"
        assert snapshot["syn_sketch"]["total"] == 1


def _ladder_config():
    """The ``overload-oldest`` ladder cell with attribution on: a
    spoofed flood that evicts on nearly every SYN, and admission
    control feeding its own Space-Saving summary."""
    from repro.experiments.scenario import ScenarioConfig
    from repro.faults.chaos import overload_matrix

    base = ScenarioConfig(seed=1, time_scale=0.01,
                          telemetry=TelemetrySpec(attribution=True))
    return overload_matrix(base)["overload-oldest"].config


class TestScenarioAgreement:
    """Exact/sketch agreement on a small config: every distinct source
    fits in the top-K, so the summary must be *exact* and must agree
    with the listener's own aggregate counters. Sketch totals are exact
    on any config, so drop totals are also checked on a ladder cell
    that evicts on nearly every SYN."""

    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.scenario import Scenario, ScenarioConfig

        config = ScenarioConfig(
            seed=5, time_scale=0.02, n_clients=3, n_attackers=3,
            attack_style="connect", attack_enabled=True,
            telemetry=TelemetrySpec(attribution=True, top_k=16))
        return Scenario(config).run()

    @pytest.fixture(scope="class")
    def ladder_result(self):
        from repro.experiments.scenario import Scenario

        return Scenario(_ladder_config()).run()

    def test_attribution_total_matches_syn_counter(self, result):
        attribution = result.attribution
        counters = result.obs.counters.scope("server")
        assert attribution.syns.total == counters.get("SynsRecv")

    def test_under_capacity_counts_are_exact(self, result):
        attribution = result.attribution
        # 6 distinct sources < 16 slots: no evictions, zero error.
        assert attribution.syns.evictions == 0
        top = attribution.syns.top()
        assert 0 < len(top) <= 6
        assert all(error == 0 for _key, _count, error in top)
        # The Count-Min estimate never undercounts the exact count and
        # stays within its documented bound.
        bound = attribution.syn_sketch.error_bound()
        for key, count, _error in top:
            estimate = attribution.estimate_syns(key)
            assert count <= estimate <= count + bound

    @pytest.mark.parametrize("fixture, covered", [
        ("result", "DeceptionAcksIgnored"),
        ("ladder_result", "AdmissionDrops"),
    ], ids=["connect", "ladder"])
    def test_drop_attribution_equals_drop_counters(self, fixture, covered,
                                                   request):
        """Every drop the MIB counts reaches the per-cause sketch, so a
        drop site that forgets ``on_drop`` fails here. The one
        exception is ``SynCacheEvictions`` (see ``SourceAttribution``)."""
        run = request.getfixturevalue(fixture)
        counters = run.obs.counters.scope("server")
        by_cause = run.attribution.drops_by_cause
        attributed = 0
        for cause in DROP_CAUSES:
            if cause == "SynCacheEvictions":
                assert cause not in by_cause
                continue
            sketch = by_cause.get(cause)
            total = sketch.total if sketch is not None else 0
            assert total == counters.get(cause), cause
            attributed += total
        assert run.attribution.drops.total == attributed
        assert counters.get(covered) > 0

    def test_same_seed_snapshot_is_byte_identical(self, result):
        from repro.experiments.scenario import Scenario, ScenarioConfig

        config = ScenarioConfig(
            seed=5, time_scale=0.02, n_clients=3, n_attackers=3,
            attack_style="connect", attack_enabled=True,
            telemetry=TelemetrySpec(attribution=True, top_k=16))
        again = Scenario(config).run()
        assert json.dumps(again.attribution.snapshot(), sort_keys=True) \
            == json.dumps(result.attribution.snapshot(), sort_keys=True)
