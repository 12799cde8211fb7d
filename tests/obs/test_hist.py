"""Histogram tests: bucketing, quantiles, merging, and serialisation."""

import json
import math
import pickle

import pytest

from repro.errors import SimulationError
from repro.obs.hist import (
    CATALOGUE,
    Histogram,
    HistogramRegistry,
    describe,
    family,
)


class TestRecording:
    def test_count_sum_min_max_exact(self):
        hist = Histogram("latency")
        for value in (0.001, 0.010, 0.100):
            hist.record(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(0.111)
        assert hist.minimum == 0.001
        assert hist.maximum == 0.100
        assert hist.mean == pytest.approx(0.037)

    def test_weighted_record(self):
        hist = Histogram("latency")
        hist.record(0.5, n=4)
        assert hist.count == 4
        assert hist.total == pytest.approx(2.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            Histogram("latency").record(-0.1)

    def test_clamping_below_and_above_range(self):
        hist = Histogram("latency")
        hist.record(0.0)        # below the 1 µs lower bound
        hist.record(1e9)        # way above the 10 ks upper bound
        assert hist.counts.get(0) == 1
        assert hist.counts.get(hist.n_buckets - 1) == 1
        # Exact stats are unaffected by bucket clamping.
        assert hist.minimum == 0.0
        assert hist.maximum == 1e9

    def test_bad_layout_rejected(self):
        with pytest.raises(SimulationError):
            Histogram("x", lowest=0.0)
        with pytest.raises(SimulationError):
            Histogram("x", buckets_per_decade=0)


class TestQuantiles:
    def test_empty_histogram_is_nan(self):
        hist = Histogram("latency")
        assert math.isnan(hist.quantile(0.5))
        assert all(math.isnan(v) for v in hist.quantiles().values())

    def test_out_of_range_q_rejected(self):
        with pytest.raises(SimulationError):
            Histogram("x").quantile(1.5)

    def test_single_sample_all_quantiles_equal_it(self):
        hist = Histogram("latency")
        hist.record(0.25)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert hist.quantile(q) == pytest.approx(0.25)

    def test_quantile_within_one_bucket_width(self):
        # 20 buckets/decade => bucket ratio 10^(1/20) ~ 1.122; the
        # quantile estimate must land within that relative error.
        hist = Histogram("latency")
        values = [0.001 * 1.07 ** i for i in range(200)]
        for value in values:
            hist.record(value)
        values.sort()
        width = 10.0 ** (1.0 / hist.buckets_per_decade)
        for q in (0.5, 0.95, 0.99):
            exact = values[min(len(values) - 1,
                               int(q * len(values)))]
            estimate = hist.quantile(q)
            assert exact / width <= estimate <= exact * width

    def test_quantiles_clamped_to_observed_range(self):
        hist = Histogram("latency")
        hist.record(0.010)
        hist.record(0.011)
        assert hist.quantile(0.0) >= hist.minimum
        assert hist.quantile(1.0) <= hist.maximum


class TestMerge:
    def test_split_merge_equals_single(self):
        values = [0.0001 * 1.13 ** i for i in range(120)]
        whole = Histogram("latency")
        left, right = Histogram("latency"), Histogram("latency")
        for i, value in enumerate(values):
            whole.record(value)
            (left if i % 2 else right).record(value)
        left.merge(right)
        merged, single = left.as_payload(), whole.as_payload()
        # Buckets, count and quantiles are integer/bucket-derived: exact.
        for key in ("buckets", "count", "min", "max", "quantiles"):
            assert merged[key] == single[key]
        # The sum is a float accumulation; only its order differs.
        assert merged["sum"] == pytest.approx(single["sum"])

    def test_merge_is_order_independent(self):
        a, b, c = (Histogram("h") for _ in range(3))
        a.record(0.001)
        b.record(0.010)
        c.record(0.100)
        ab = a.copy().merge(b).merge(c)
        cb = c.copy().merge(b).merge(a)
        assert ab.as_payload() == cb.as_payload()

    def test_merge_empty_is_identity(self):
        hist = Histogram("latency")
        hist.record(0.5)
        before = hist.as_payload()
        hist.merge(Histogram("latency"))
        assert hist.as_payload() == before

    def test_incompatible_layout_rejected(self):
        with pytest.raises(SimulationError):
            Histogram("a").merge(Histogram("a", lowest=1e-3))

    def test_copy_is_independent(self):
        hist = Histogram("latency")
        hist.record(0.5)
        clone = hist.copy()
        clone.record(0.6)
        assert hist.count == 1
        assert clone.count == 2


class TestSerialisation:
    def test_payload_round_trip(self):
        hist = Histogram("latency")
        for value in (0.002, 0.020, 0.200):
            hist.record(value)
        rebuilt = Histogram.from_payload(hist.as_payload())
        assert rebuilt.as_payload() == hist.as_payload()
        assert rebuilt.quantile(0.95) == hist.quantile(0.95)

    def test_empty_payload_uses_null_not_nan(self):
        payload = Histogram("latency").as_payload()
        assert payload["min"] is None
        assert payload["max"] is None
        assert payload["mean"] is None
        assert all(v is None for v in payload["quantiles"].values())
        # The payload must be strict-JSON serialisable.
        json.dumps(payload, allow_nan=False)

    def test_pickle_round_trip(self):
        hist = Histogram("latency")
        hist.record(0.125)
        rebuilt = pickle.loads(pickle.dumps(hist))
        assert rebuilt.as_payload() == hist.as_payload()

    def test_payload_buckets_string_indexed_and_sorted(self):
        hist = Histogram("latency")
        hist.record(1.0)
        hist.record(0.001)
        keys = list(hist.as_payload()["buckets"])
        assert all(isinstance(k, str) for k in keys)
        assert keys == sorted(keys, key=int)


class TestRegistry:
    def test_record_creates_on_first_use(self):
        registry = HistogramRegistry()
        registry.record("handshake_latency.client", 0.05)
        assert "handshake_latency.client" in registry
        assert registry.hist("handshake_latency.client").count == 1

    def test_merge_copies_never_aliases(self):
        worker = HistogramRegistry()
        worker.record("solve", 0.2)
        merged = HistogramRegistry()
        merged.merge(worker)
        merged.record("solve", 0.3)
        assert worker.hist("solve").count == 1
        assert merged.hist("solve").count == 2

    def test_merge_accepts_plain_dict(self):
        hist = Histogram("solve")
        hist.record(0.2)
        registry = HistogramRegistry()
        registry.merge({"solve": hist})
        assert registry.hist("solve").count == 1

    def test_snapshot_name_sorted(self):
        registry = HistogramRegistry()
        registry.record("b", 0.1)
        registry.record("a", 0.1)
        assert list(registry.snapshot()) == ["a", "b"]

    def test_render_mentions_every_histogram(self):
        registry = HistogramRegistry()
        assert "no histograms" in registry.render()
        registry.record("accept_wait", 0.01)
        assert "accept_wait" in registry.render()
        assert "p95=" in registry.render()


class TestCatalogue:
    def test_family_strips_label_suffix(self):
        assert family("handshake_latency.client") == "handshake_latency"
        assert family("accept_wait") == "accept_wait"

    def test_describe_falls_back_to_name(self):
        assert describe("handshake_latency.client") == \
            CATALOGUE["handshake_latency"]
        assert describe("mystery") == "mystery"
