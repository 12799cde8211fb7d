"""Link model tests: serialization, queueing, droptail, FIFO equivalence."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import NetworkError
from repro.net.link import Link


class TestBasics:
    def test_serialization_delay(self):
        link = Link(rate_bps=8e6, delay=0.0)  # 1 MB/s
        assert link.serialization_delay(1000) == pytest.approx(0.001)

    def test_arrival_includes_propagation(self):
        link = Link(rate_bps=8e6, delay=0.01)
        arrival = link.offer(0.0, 1000)
        assert arrival == pytest.approx(0.001 + 0.01)

    def test_back_to_back_packets_queue(self):
        link = Link(rate_bps=8e6, delay=0.0)
        first = link.offer(0.0, 1000)
        second = link.offer(0.0, 1000)
        assert first == pytest.approx(0.001)
        assert second == pytest.approx(0.002)

    def test_idle_gap_resets_queue(self):
        link = Link(rate_bps=8e6, delay=0.0)
        link.offer(0.0, 1000)
        later = link.offer(10.0, 1000)
        assert later == pytest.approx(10.001)

    def test_counters(self):
        link = Link(rate_bps=8e6)
        link.offer(0.0, 500)
        link.offer(0.0, 700)
        assert link.packets_sent == 2
        assert link.bytes_sent == 1200
        link.reset_counters()
        assert link.bytes_sent == 0

    def test_validation(self):
        with pytest.raises(NetworkError):
            Link(rate_bps=0.0)
        with pytest.raises(NetworkError):
            Link(rate_bps=1.0, delay=-1.0)
        with pytest.raises(NetworkError):
            Link(rate_bps=1.0, buffer_bytes=0)
        link = Link(rate_bps=8e6)
        with pytest.raises(NetworkError):
            link.offer(0.0, 0)


    def test_fields_live_in_slots_with_the_dataclass_surface(self):
        # The compiled fold reads the fields from their slots; the
        # keywords, defaults and repr are the ones the dataclass had.
        link = Link(8e6, name="uplink", packets_sent=3)
        assert vars(link) == {}
        assert (link.delay, link.buffer_bytes, link.loss_rate, link.rng,
                link.fault, link._next_free) == (0.0005, 256 * 1024, 0.0,
                                                 None, None, 0.0)
        assert link.packets_sent == 3
        assert repr(link) == ("Link(rate_bps=8000000.0, delay=0.0005, "
                              "buffer_bytes=262144, loss_rate=0.0, "
                              "name='uplink')")
        with pytest.raises(NetworkError, match="requires an rng"):
            Link(rate_bps=1.0, loss_rate=0.1)


class TestDroptail:
    def test_drops_when_buffer_exceeded(self):
        link = Link(rate_bps=8e3, delay=0.0, buffer_bytes=2000)  # 1 KB/s
        assert link.offer(0.0, 1000) is not None
        assert link.offer(0.0, 1000) is not None
        assert link.offer(0.0, 1000) is None  # 2000 B queued already
        assert link.packets_dropped == 1

    def test_recovers_after_drain(self):
        link = Link(rate_bps=8e3, delay=0.0, buffer_bytes=1500)
        link.offer(0.0, 1000)
        assert link.offer(0.0, 1000) is None
        assert link.offer(2.0, 1000) is not None  # queue drained by t=1

    def test_backlog_measurement(self):
        link = Link(rate_bps=8e6, delay=0.0)
        link.offer(0.0, 1000)
        assert link.backlog_bytes(0.0) == pytest.approx(1000.0)
        assert link.backlog_bytes(0.0005) == pytest.approx(500.0)
        assert link.backlog_bytes(1.0) == 0.0


class TestUtilization:
    def test_utilization_fraction(self):
        link = Link(rate_bps=8e6, delay=0.0)
        link.offer(0.0, 1000)  # 1 ms of air time
        assert link.utilization(now=0.002) == pytest.approx(0.5)

    def test_zero_elapsed(self):
        assert Link(rate_bps=8e6).utilization(now=0.0) == 0.0


class TestFifoEquivalence:
    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=60, max_value=1500)),
        min_size=1, max_size=30))
    def test_arrivals_preserve_offer_order(self, offers):
        """Offered in time order ⇒ delivered in the same order (FIFO)."""
        link = Link(rate_bps=1e6, delay=0.003, buffer_bytes=10 ** 9)
        offers = sorted(offers, key=lambda pair: pair[0])
        arrivals = [link.offer(t, size) for t, size in offers]
        assert all(a is not None for a in arrivals)
        assert arrivals == sorted(arrivals)

    @given(st.lists(st.integers(min_value=60, max_value=1500),
                    min_size=1, max_size=30))
    def test_busy_period_is_sum_of_serialization(self, sizes):
        """All offered at t=0: last arrival = Σ serialization + delay."""
        link = Link(rate_bps=1e6, delay=0.001, buffer_bytes=10 ** 9)
        last = None
        for size in sizes:
            last = link.offer(0.0, size)
        expected = sum(size * 8.0 / 1e6 for size in sizes) + 0.001
        assert last == pytest.approx(expected)
