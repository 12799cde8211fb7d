"""FaultSchedule: validation, hashability, fingerprint stability."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.faults import (
    ClockSkew,
    FaultSchedule,
    LinkFlap,
    LossBurst,
    MemoryPressure,
    OptionCorruption,
    SecretRotation,
)
from repro.runner.hashing import canonicalize, stable_hash


class TestValidation:
    def test_windows_must_be_ordered_and_nonnegative(self):
        with pytest.raises(ExperimentError):
            LossBurst(start=-1.0, end=2.0)
        with pytest.raises(ExperimentError):
            LinkFlap(start=3.0, end=1.0)
        with pytest.raises(ExperimentError):
            OptionCorruption(start=2.0, end=1.0)

    def test_probabilities_bounded(self):
        with pytest.raises(ExperimentError):
            LossBurst(0.0, 1.0, loss_bad=1.5)
        with pytest.raises(ExperimentError):
            LossBurst(0.0, 1.0, p_good_bad=-0.1)
        with pytest.raises(ExperimentError):
            OptionCorruption(0.0, 1.0, probability=2.0)

    def test_clock_skew_bounds(self):
        with pytest.raises(ExperimentError):
            ClockSkew(host="server", at=-1.0, offset=1.0)
        with pytest.raises(ExperimentError):
            ClockSkew(host="server", at=0.0, offset=1.0, jitter=-0.5)
        with pytest.raises(ExperimentError):
            ClockSkew(host="server", at=0.0, offset=1.0, jitter=0.5,
                      interval=0.0)
        # A skew that would put the host clock below zero, directly or
        # through its jitter band.
        with pytest.raises(ExperimentError):
            ClockSkew(host="server", at=0.5, offset=-10.0)
        with pytest.raises(ExperimentError):
            ClockSkew(host="server", at=2.0, offset=-1.5, jitter=1.0)
        ClockSkew(host="server", at=2.0, offset=-1.5, jitter=0.5)
        # jitter=0 with any interval is fine (interval unused)
        ClockSkew(host="server", at=0.0, offset=1.0)

    def test_pressure_factors_in_unit_interval(self):
        with pytest.raises(ExperimentError):
            MemoryPressure(0.0, 1.0, listen_factor=0.0)
        with pytest.raises(ExperimentError):
            MemoryPressure(0.0, 1.0, accept_factor=1.5)
        MemoryPressure(0.0, 1.0, listen_factor=1.0)  # no-op is legal

    def test_rotation_times_nonnegative(self):
        with pytest.raises(ExperimentError):
            SecretRotation(times=(1.0, -2.0))


class TestScheduleShape:
    def test_lists_coerced_to_tuples(self):
        schedule = FaultSchedule(loss_bursts=[LossBurst(0.0, 1.0)],
                                 link_flaps=[LinkFlap(0.0, 1.0)])
        assert isinstance(schedule.loss_bursts, tuple)
        assert isinstance(schedule.link_flaps, tuple)

    def test_hashable_and_equal_by_value(self):
        a = FaultSchedule(corruption=(OptionCorruption(0.0, 2.0),))
        b = FaultSchedule(corruption=[OptionCorruption(0.0, 2.0)])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_is_empty(self):
        assert FaultSchedule().is_empty()
        assert not FaultSchedule(
            secret_rotations=(SecretRotation(times=(1.0,)),)).is_empty()

    def test_canonicalizes_like_any_config(self):
        schedule = FaultSchedule(
            clock_skews=(ClockSkew(host="server", at=1.0, offset=5.0),))
        text = canonicalize(schedule)
        assert "ClockSkew" in text and "server" in text


class TestFingerprint:
    def test_stable_across_reconstruction(self):
        make = lambda: FaultSchedule(  # noqa: E731
            loss_bursts=(LossBurst(1.0, 2.0, loss_bad=0.4),),
            memory_pressure=(MemoryPressure(0.5, 1.5),))
        assert make().fingerprint() == make().fingerprint()
        assert make().fingerprint() == stable_hash(make())

    def test_changes_with_any_field(self):
        base = FaultSchedule(loss_bursts=(LossBurst(1.0, 2.0),))
        tweaked = FaultSchedule(
            loss_bursts=(LossBurst(1.0, 2.0, loss_bad=0.51),))
        widened = FaultSchedule(loss_bursts=(LossBurst(1.0, 2.5),))
        empty = FaultSchedule()
        prints = {s.fingerprint() for s in (base, tweaked, widened, empty)}
        assert len(prints) == 4
