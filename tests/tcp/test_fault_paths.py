"""Protocol behaviour under injected faults (loss, corruption).

Coverage for the robustness layer: half-open expiry when the network
eats SYN-ACKs, half-opens reclaimed by memory pressure, and the §5
RST-on-data deception when a puzzle solution is corrupted in flight —
with the invariant checker riding along, so a leaked TCB or a drop-cause accounting slip
fails the test rather than hiding in an average.
"""

from __future__ import annotations

from repro.faults import (
    FaultInjector,
    FaultSchedule,
    InvariantChecker,
    LinkFlap,
    LossBurst,
    OptionCorruption,
)
from repro.net.packet import Packet, TCPFlags, TCPOptions
from repro.obs import drop_attribution
from repro.puzzles.params import PuzzleParams
from repro.tcp.connection import ClientConnConfig
from repro.tcp.constants import DefenseMode
from repro.tcp.listener import DefenseConfig


def _listen(mini_net, **kwargs):
    return mini_net.server.tcp.listen(80, DefenseConfig(**kwargs))


def _install(mini_net, schedule, listener, seed=7):
    injector = FaultInjector(schedule, seed=seed)
    injector.install(mini_net.engine, mini_net.network, listener)
    checker = InvariantChecker(listener, interval=0.1)
    checker.start()
    return injector, checker


class TestHalfOpenExpiryUnderLoss:
    def test_flapped_synack_path_expires_cleanly(self, mini_net):
        """Server's uplink down: SYN arrives, every SYN-ACK vanishes."""
        listener = _listen(mini_net, synack_retries=1, synack_timeout=0.2)
        schedule = FaultSchedule(
            link_flaps=(LinkFlap(0.0, 100.0, links="server->r1"),))
        injector, checker = _install(mini_net, schedule, listener)
        raw_syn = Packet(src_ip=0xAC100001, dst_ip=mini_net.server.address,
                         src_port=999, dst_port=80, seq=1,
                         flags=TCPFlags.SYN, options=TCPOptions(mss=1460))
        mini_net.network.send(mini_net.client, raw_syn)
        mini_net.run(until=5.0)
        checker.final_check()
        # No leaked TCBs, and every drop is attributed.
        assert len(listener.listen_queue) == 0
        assert listener.stats.half_open_expired == 1
        assert listener.mib["HalfOpenExpired"] == 1
        assert listener.listen_queue.admitted == 1
        assert listener.listen_queue.expired == 1
        assert injector.stats.get("link_flap_drops") >= 2  # SYN-ACK + retry
        assert listener.stats.established_total() == 0

    def test_bursty_loss_toward_client_expires_cleanly(self, mini_net):
        """A permanently-bad Gilbert–Elliott chain eats the return path."""
        listener = _listen(mini_net, synack_retries=1, synack_timeout=0.2)
        schedule = FaultSchedule(
            loss_bursts=(LossBurst(0.0, 100.0, p_good_bad=1.0,
                                   p_bad_good=0.0, loss_bad=1.0,
                                   links="r2->client0"),))
        injector, checker = _install(mini_net, schedule, listener)
        mini_net.client.tcp.connect(mini_net.server.address, 80)
        mini_net.run(until=10.0)
        checker.final_check()
        assert injector.stats.get("link_burst_losses") >= 1
        assert len(listener.listen_queue) == 0
        assert listener.stats.half_open_expired >= 1
        assert listener.stats.established_total() == 0
        # Conservation by hand, on top of the checker's audit.
        queue = listener.listen_queue
        assert queue.admitted == queue.completed + queue.expired


class TestMemoryPressureReclaim:
    def test_every_failed_handshake_has_a_drop_cause(self, mini_net):
        """Half-opens reclaimed by memory pressure are failed handshakes:
        each books ``HalfOpenReclaimed``, so the attribution accounts
        for all eight SYNs."""
        listener = _listen(mini_net, backlog=8)
        checker = InvariantChecker(listener, interval=0.1)
        checker.start()
        for port in range(8):
            mini_net.network.send(mini_net.client, Packet(
                src_ip=0xAC100001, dst_ip=mini_net.server.address,
                src_port=2000 + port, dst_port=80, seq=port,
                flags=TCPFlags.SYN, options=TCPOptions(mss=1460)))
        mini_net.run(until=0.05)
        assert len(listener.listen_queue) == 8
        evicted = listener.apply_memory_pressure(listen_backlog=2)
        assert evicted["listen"] == 6
        mini_net.run(until=200.0)
        checker.final_check()
        assert listener.stats.established_total() == 0
        attribution = drop_attribution(listener.mib)
        assert attribution == {"HalfOpenExpired": 2, "HalfOpenReclaimed": 6}
        assert sum(attribution.values()) == 8
        # Only accept-queue reclaims count here: they were established.
        assert listener.mib["MemoryPressureReclaims"] == 0


class TestDeceptionUnderCorruption:
    def test_corrupted_solution_draws_rst_on_data(self, mini_net):
        """Corrupted puzzle bytes ⇒ server rejects silently, client
        believes it connected, and its first data segment draws an RST."""
        listener = _listen(mini_net, mode=DefenseMode.PUZZLES,
                           puzzle_params=PuzzleParams(k=1, m=8),
                           always_challenge=True)
        schedule = FaultSchedule(
            corruption=(OptionCorruption(0.0, 100.0, probability=1.0),))
        injector, checker = _install(mini_net, schedule, listener)
        events = []
        conn = mini_net.client.tcp.connect(
            mini_net.server.address, 80,
            ClientConnConfig(supports_puzzles=True))
        conn.on_established = lambda c: (events.append("established"),
                                         c.send_data(100, ("gettext", 1)))
        conn.on_reset = lambda c: events.append("reset")
        mini_net.run(until=3.0)
        checker.final_check()
        assert events == ["established", "reset"]
        corrupted = (injector.stats.get("corrupted_challenges")
                     + injector.stats.get("corrupted_solutions"))
        assert corrupted >= 1
        assert listener.stats.solutions_invalid >= 1
        assert listener.mib["PuzzlesRejected"] >= 1
        assert listener.stats.established_total() == 0
        assert len(listener.listen_queue) == 0  # stateless: nothing leaked

    def test_intact_options_establish_under_the_same_harness(self, mini_net):
        """Control: zero corruption probability leaves the puzzle path
        working, so the test above fails for the right reason."""
        listener = _listen(mini_net, mode=DefenseMode.PUZZLES,
                           puzzle_params=PuzzleParams(k=1, m=8),
                           always_challenge=True)
        schedule = FaultSchedule(
            corruption=(OptionCorruption(0.0, 100.0, probability=0.0),))
        injector, checker = _install(mini_net, schedule, listener)
        mini_net.client.tcp.connect(mini_net.server.address, 80,
                                    ClientConnConfig(supports_puzzles=True))
        mini_net.run(until=3.0)
        checker.final_check()
        assert injector.stats.snapshot() == {}
        assert listener.stats.established_puzzle == 1
        assert listener.stats.solutions_invalid == 0
