"""The runtime invariant checker: clean runs, seeded corruption, pickling."""

from __future__ import annotations

import pickle

import pytest

from repro.faults import FaultSchedule, InvariantChecker, InvariantViolation
from repro.faults import LossBurst
from repro.net.packet import Packet, TCPFlags, TCPOptions
from repro.tcp.constants import DefenseMode
from repro.tcp.listener import DefenseConfig


def _listen(mini_net, **kwargs):
    return mini_net.server.tcp.listen(80, DefenseConfig(**kwargs))


def _raw_syn(mini_net, src_ip=0xAC100001, src_port=999):
    packet = Packet(src_ip=src_ip, dst_ip=mini_net.server.address,
                    src_port=src_port, dst_port=80, seq=1,
                    flags=TCPFlags.SYN, options=TCPOptions(mss=1460))
    mini_net.network.send(mini_net.client, packet)


class TestCleanRuns:
    def test_busy_handshakes_violate_nothing(self, mini_net):
        listener = _listen(mini_net)
        checker = InvariantChecker(listener, interval=0.05)
        checker.start()
        conn = mini_net.client.tcp.connect(mini_net.server.address, 80)
        mini_net.run(until=2.0)
        checker.final_check()
        assert conn.connect_time is not None
        assert checker.checks_run >= 10

    def test_final_check_stops_the_timer(self, mini_net):
        listener = _listen(mini_net)
        checker = InvariantChecker(listener, interval=0.1)
        checker.start()
        mini_net.run(until=0.5)
        checker.final_check()
        ticks = checker.checks_run
        mini_net.run(until=2.0)
        assert checker.checks_run == ticks

    def test_scenario_attaches_and_audits(self):
        from repro.experiments.scenario import Scenario, ScenarioConfig

        config = ScenarioConfig(seed=4, time_scale=0.01, n_clients=2,
                                n_attackers=1, attack_style="connect")
        schedule = FaultSchedule(
            loss_bursts=(LossBurst(1.0, 4.0, loss_bad=0.4),))
        scenario = Scenario(config, faults=schedule,
                            invariant_interval=0.25)
        result = scenario.run()
        assert result.invariants is not None
        assert result.invariants.checks_run > 0
        assert result.fault_injector is not None


class TestSeededCorruption:
    """Deliberately break the bookkeeping; the checker must notice."""

    def _checker_with_half_open(self, mini_net, **kwargs):
        kwargs.setdefault("synack_retries", 6)
        listener = _listen(mini_net, **kwargs)
        _raw_syn(mini_net)
        mini_net.run(until=0.05)
        assert len(listener.listen_queue) == 1
        return listener, InvariantChecker(listener, interval=0.25)

    def test_queue_accounting_corruption_is_caught(self, mini_net):
        listener, checker = self._checker_with_half_open(mini_net)
        listener.listen_queue.admitted += 1  # phantom admission
        with pytest.raises(InvariantViolation) as info:
            checker.check_now()
        assert info.value.invariant == "listen-conservation"
        assert info.value.host == "server"

    def test_occupancy_over_backlog_is_caught(self, mini_net):
        listener, checker = self._checker_with_half_open(mini_net)
        listener.listen_queue.backlog = 0
        with pytest.raises(InvariantViolation) as info:
            checker.check_now()
        assert info.value.invariant == "listen-occupancy"

    def test_disarmed_retransmit_timer_is_caught(self, mini_net):
        listener, checker = self._checker_with_half_open(mini_net)
        tcb = next(listener.listen_queue.values())
        tcb.cancel_timer()
        with pytest.raises(InvariantViolation) as info:
            checker.check_now()
        assert info.value.invariant == "half-open-timers"
        assert "never expire" in info.value.detail

    def test_immortal_half_open_is_caught(self, mini_net):
        listener, checker = self._checker_with_half_open(mini_net)
        tcb = next(listener.listen_queue.values())
        tcb.created_at = -1000.0  # ancient birth: a leaked TCB
        with pytest.raises(InvariantViolation) as info:
            checker.check_now()
        assert info.value.invariant == "half-open-lifetime"

    def test_mib_divergence_is_caught(self, mini_net):
        listener = _listen(mini_net)
        checker = InvariantChecker(listener)
        checker.check_now()  # conserved while idle
        listener.mib.incr("SynsRecv")  # a SYN no outcome accounts for
        with pytest.raises(InvariantViolation) as info:
            checker.check_now()
        assert info.value.invariant == "syn-conservation"

    def test_syncache_imbalance_is_caught(self, mini_net):
        listener = _listen(mini_net, mode=DefenseMode.SYNCACHE)
        checker = InvariantChecker(listener)
        checker.check_now()  # balanced while idle
        listener.mib.incr("SynCacheAdded")  # an insert with no record
        with pytest.raises(InvariantViolation) as info:
            checker.check_now()
        assert info.value.invariant == "syncache-accounting"

    def test_checks_run_counts_even_failed_audits(self, mini_net):
        listener, checker = self._checker_with_half_open(mini_net)
        listener.listen_queue.admitted += 1
        with pytest.raises(InvariantViolation):
            checker.check_now()
        assert checker.checks_run == 1


class TestViolationObject:
    def test_message_carries_context(self):
        exc = InvariantViolation("listen-occupancy", "3 over backlog",
                                 host="server", sim_time=1.25,
                                 spans=("flow=a outcome=ok",))
        text = str(exc)
        assert "listen-occupancy" in text
        assert "t=1.250000s" in text
        assert "server" in text
        assert "flow=a outcome=ok" in text

    def test_pickle_roundtrip(self):
        exc = InvariantViolation("syncache-accounting", "off by one",
                                 host="server", sim_time=9.5,
                                 spans=("s1", "s2"))
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, InvariantViolation)
        assert clone.invariant == exc.invariant
        assert clone.detail == exc.detail
        assert clone.host == exc.host
        assert clone.sim_time == exc.sim_time
        assert clone.spans == exc.spans
        assert str(clone) == str(exc)
