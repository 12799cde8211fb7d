"""SYN-cookie codec tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError
from repro.tcp.syncookies import (
    COOKIE_TICK_SECONDS,
    MSS_TABLE,
    SynCookieCodec,
)

FLOW = dict(src_ip=0x0A000002, src_port=43210, dst_port=80,
            client_isn=0x12345678)


class TestRoundtrip:
    def test_valid_cookie_decodes(self):
        codec = SynCookieCodec(b"secret")
        cookie = codec.encode(now=10.0, client_mss=1460, **FLOW)
        state = codec.decode(now=10.1, cookie=cookie, **FLOW)
        assert state is not None

    def test_mss_approximated_from_table(self):
        codec = SynCookieCodec(b"secret")
        cookie = codec.encode(now=10.0, client_mss=1460, **FLOW)
        state = codec.decode(now=10.1, cookie=cookie, **FLOW)
        assert state.mss == 1460  # in the table exactly
        cookie = codec.encode(now=10.0, client_mss=1400, **FLOW)
        state = codec.decode(now=10.1, cookie=cookie, **FLOW)
        assert state.mss == 1300  # largest entry <= 1400

    def test_wscale_is_lost(self):
        """The §5 point: cookies cannot carry window scaling."""
        codec = SynCookieCodec(b"secret")
        cookie = codec.encode(now=10.0, client_mss=1460, **FLOW)
        assert codec.decode(now=10.1, cookie=cookie, **FLOW).wscale is None

    def test_wrong_flow_rejected(self):
        codec = SynCookieCodec(b"secret")
        cookie = codec.encode(now=10.0, client_mss=1460, **FLOW)
        wrong = dict(FLOW, src_port=999)
        assert codec.decode(now=10.1, cookie=cookie, **wrong) is None

    def test_wrong_isn_rejected(self):
        codec = SynCookieCodec(b"secret")
        cookie = codec.encode(now=10.0, client_mss=1460, **FLOW)
        wrong = dict(FLOW, client_isn=1)
        assert codec.decode(now=10.1, cookie=cookie, **wrong) is None

    def test_different_secret_rejected(self):
        cookie = SynCookieCodec(b"a").encode(now=10.0, client_mss=1460,
                                             **FLOW)
        assert SynCookieCodec(b"b").decode(now=10.1, cookie=cookie,
                                           **FLOW) is None

    def test_guessed_cookie_rejected(self):
        codec = SynCookieCodec(b"secret")
        assert codec.decode(now=10.0, cookie=0xDEADBEEF, **FLOW) is None

    def test_out_of_range_cookie(self):
        codec = SynCookieCodec(b"secret")
        assert codec.decode(now=10.0, cookie=-1, **FLOW) is None
        assert codec.decode(now=10.0, cookie=2 ** 33, **FLOW) is None

    def test_empty_secret_rejected(self):
        with pytest.raises(NetworkError):
            SynCookieCodec(b"")


class TestAging:
    def test_valid_across_one_tick(self):
        codec = SynCookieCodec(b"secret")
        now = 3.0 * COOKIE_TICK_SECONDS - 1.0
        cookie = codec.encode(now=now, client_mss=1460, **FLOW)
        assert codec.decode(now=now + 2.0, cookie=cookie, **FLOW) \
            is not None

    def test_stale_after_two_ticks(self):
        codec = SynCookieCodec(b"secret")
        cookie = codec.encode(now=10.0, client_mss=1460, **FLOW)
        stale = 10.0 + 2.5 * COOKIE_TICK_SECONDS
        assert codec.decode(now=stale, cookie=cookie, **FLOW) is None

    def test_time_counter(self):
        assert SynCookieCodec.time_counter(0.0) == 0
        assert SynCookieCodec.time_counter(COOKIE_TICK_SECONDS + 1) == 1


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=0xFFFFFFFF),
       st.integers(min_value=1, max_value=0xFFFF),
       st.integers(min_value=536, max_value=9000),
       st.floats(min_value=0.0, max_value=1e5, allow_nan=False))
def test_roundtrip_property(src_ip, src_port, mss, now):
    codec = SynCookieCodec(b"prop")
    cookie = codec.encode(now=now, src_ip=src_ip, src_port=src_port,
                          dst_port=80, client_isn=7, client_mss=mss)
    state = codec.decode(now=now + 0.5, cookie=cookie, src_ip=src_ip,
                         src_port=src_port, dst_port=80, client_isn=7)
    assert state is not None
    assert state.mss in MSS_TABLE
    assert state.mss <= mss


@settings(deadline=None, max_examples=30, derandomize=True)
@given(st.integers(min_value=0, max_value=0xFFFFFFFF),
       st.integers(min_value=1, max_value=0xFFFF),
       st.integers(min_value=0, max_value=0xFFFFFFFF),
       st.integers(min_value=536, max_value=9000),
       st.floats(min_value=0.0, max_value=1e5, allow_nan=False))
def test_single_bit_flip_never_validates(src_ip, src_port, isn, mss, now):
    """No bit of a cookie can be changed without the secret: a flipped
    counter bit misses the window or the hash, a flipped hash bit misses
    the hash, and a flipped MSS bit changes the hashed MSS index."""
    codec = SynCookieCodec(b"prop")
    flow = dict(src_ip=src_ip, src_port=src_port, dst_port=80,
                client_isn=isn)
    cookie = codec.encode(now=now, client_mss=mss, **flow)
    assert codec.decode(now=now, cookie=cookie, **flow) is not None
    for bit in range(32):
        assert codec.decode(now=now, cookie=cookie ^ (1 << bit),
                            **flow) is None, bit
