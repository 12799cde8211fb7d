"""Attacker and botnet tests."""

import random

import pytest

from repro.errors import ExperimentError, SimulationError
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.hosts.attacker import (
    AttackerConfig,
    ConnectionFlooder,
    SynFlooder,
)
from repro.hosts.botnet import Botnet, build_botnet
from repro.hosts.server import AppServer, ServerConfig
from repro.metrics.connections import ConnectionTracker
from repro.puzzles.params import PuzzleParams
from repro.tcp.constants import DefenseMode
from repro.tcp.listener import DefenseConfig
from repro.tcp.stack import EPHEMERAL_SPAN
from tests.conftest import MiniNet


class TestSynFlooder:
    def test_floods_at_configured_rate(self):
        net = MiniNet(n_attackers=1)
        listener = net.server.tcp.listen(80, DefenseConfig(backlog=10_000))
        flooder = SynFlooder(net.attackers[0], AttackerConfig(
            server_ip=net.server.address, rate=100.0))
        flooder.start()
        net.run(until=2.0)
        flooder.stop()
        assert flooder.stats.syns_sent == pytest.approx(200, abs=2)
        assert listener.stats.syns_received == flooder.stats.syns_sent

    def test_spoofed_sources_never_complete(self):
        net = MiniNet(n_attackers=1)
        listener = net.server.tcp.listen(80)
        flooder = SynFlooder(net.attackers[0], AttackerConfig(
            server_ip=net.server.address, rate=200.0))
        flooder.start()
        net.run(until=1.0)
        flooder.stop()
        assert listener.stats.established_total() == 0
        assert len(listener.listen_queue) > 0  # half-opens piling up
        assert net.network.packets_blackholed > 0  # SYN-ACKs to nowhere

    def test_fills_bounded_listen_queue(self):
        net = MiniNet(n_attackers=1)
        listener = net.server.tcp.listen(80, DefenseConfig(backlog=50))
        flooder = SynFlooder(net.attackers[0], AttackerConfig(
            server_ip=net.server.address, rate=500.0))
        flooder.start()
        net.run(until=1.0)
        flooder.stop()
        assert listener.listen_queue.full
        assert listener.stats.syn_drops_queue_full > 0


class _StopsOnDraw(random.Random):
    """A bot RNG that stops its flooder from inside a draw: the stop
    lands in the middle of a fire."""

    flooder = None
    stop_at = None

    def getrandbits(self, k):
        if self.stop_at is not None and self.flooder.stats.syns_sent \
                == self.stop_at:
            self.stop_at = None
            self.flooder.stop()
        return super().getrandbits(k)


class TestSynFlooderLifecycle:
    """start/stop keep their semantics whichever firing loop runs: each
    run equals its twin with a capture tap from t=0, which sends every
    SYN through the per-packet pipeline."""

    @staticmethod
    def _run(script, tapped):
        net = MiniNet(n_attackers=1)
        listener = net.server.tcp.listen(80, DefenseConfig(backlog=10_000))
        if tapped:
            net.network.add_tap(lambda now, packet, event: None)
        bot = net.attackers[0]
        bot.rng = _StopsOnDraw(7)
        flooder = SynFlooder(bot, AttackerConfig(
            server_ip=net.server.address, rate=1000.0))
        bot.rng.flooder = flooder
        script(net, flooder)
        net.run(until=0.5)
        stats = net.engine.stats()
        return (flooder.stats.syns_sent, listener.stats.syns_received,
                bot.rng.getstate(), net.server.rng.getstate(),
                stats["events_scheduled"], stats["events_processed"],
                stats["events_cancelled"], stats["pending_live"])

    def _check(self, script):
        result = self._run(script, tapped=False)
        assert result == self._run(script, tapped=True)
        return result[0]

    def test_stop_before_the_first_fire(self):
        def script(net, flooder):
            flooder.start(delay=0.2)
            net.engine.schedule(0.1, flooder.stop)

        assert self._check(script) == 0

    def test_stop_inside_a_fire(self):
        def script(net, flooder):
            net.engine.schedule(0.05, setattr, net.attackers[0].rng,
                                "stop_at", 120)
            flooder.start()

        assert self._check(script) == 121

    def test_stop_then_start(self):
        def script(net, flooder):
            flooder.start()
            net.engine.schedule(0.1003, flooder.stop)
            net.engine.schedule(0.2, flooder.start, 0.01)

        assert self._check(script) == 101 + 290

    def test_double_start_is_rejected_after_the_first_fire(self):
        net = MiniNet(n_attackers=1)
        net.server.tcp.listen(80)
        flooder = SynFlooder(net.attackers[0], AttackerConfig(
            server_ip=net.server.address, rate=100.0))
        flooder.start()
        net.run(until=0.1)
        with pytest.raises(SimulationError):
            flooder.start()


class TestConnectionFlooder:
    def _flood_setup(self, defense=None, solve=False, rate=100.0):
        net = MiniNet(n_attackers=1)
        server = AppServer(net.server, ServerConfig(
            defense=defense or DefenseConfig(), workers=8,
            idle_timeout=0.3))
        tracker = ConnectionTracker(net.engine)
        flooder = ConnectionFlooder(net.attackers[0], AttackerConfig(
            server_ip=net.server.address, rate=rate, solve=solve),
            tracker)
        return net, server, tracker, flooder

    def test_completes_handshakes_without_defense(self):
        net, server, tracker, flooder = self._flood_setup()
        flooder.start()
        net.run(until=2.0)
        flooder.stop()
        assert server.listener.stats.established_normal > 100

    def test_holds_slots_silently(self):
        """Zombies never send data, so workers burn idle_timeout each."""
        net, server, tracker, flooder = self._flood_setup(rate=50.0)
        flooder.start()
        net.run(until=2.0)
        flooder.stop()
        assert server.stats.idle_closed > 0
        assert server.stats.requests_served == 0

    def test_non_solving_bot_shut_out_by_always_on_puzzles(self):
        defense = DefenseConfig(mode=DefenseMode.PUZZLES,
                                puzzle_params=PuzzleParams(k=1, m=8),
                                always_challenge=True)
        net, server, tracker, flooder = self._flood_setup(defense=defense)
        flooder.start()
        net.run(until=2.0)
        flooder.stop()
        assert server.listener.stats.established_total() == 0

    def test_solving_bot_rate_limited_by_cpu(self):
        defense = DefenseConfig(mode=DefenseMode.PUZZLES,
                                puzzle_params=PuzzleParams(k=2, m=16),
                                always_challenge=True)
        net, server, tracker, flooder = self._flood_setup(
            defense=defense, solve=True, rate=200.0)
        flooder.start()
        net.run(until=4.0)
        flooder.stop()
        established = server.listener.stats.established_puzzle
        # cpu1-class bot: ~372k hashes/s / 65536 ≈ 5.7 solves/s max.
        hash_rate = net.attackers[0].cpu.hash_rate
        ceiling = 4.0 * hash_rate / PuzzleParams(k=2, m=16).expected_hashes
        assert 0 < established <= ceiling * 1.3

    def test_zombie_sweep_bounds_state(self):
        net = MiniNet(n_attackers=1)
        server = AppServer(net.server, ServerConfig(workers=8,
                                                    idle_timeout=0.3))
        flooder = ConnectionFlooder(net.attackers[0], AttackerConfig(
            server_ip=net.server.address, rate=100.0, hold_time=0.5))
        flooder.start()
        net.run(until=5.0)
        # Zombies older than hold_time are reaped by the sweeper; bound is
        # rate × (hold_time + sweep interval) with slack.
        assert len(flooder._zombies) < 100 * 1.5
        flooder.stop()
        assert len(flooder._zombies) == 0

    def test_flood_faster_than_the_port_space_stalls_instead_of_crashing(
            self):
        """Against cookies every handshake completes, and a bot holds its
        zombies for hold_time (30 s) with 28,232 ephemeral ports: above
        ~940 attempts/s it runs out. An attempt that gets no port is not
        made (connect() fails with EADDRNOTAVAIL) and is counted as a
        stall, and only attempts actually made get a tracker record."""
        result = Scenario(ScenarioConfig(
            time_scale=0.05, seed=1, defense=DefenseMode.SYNCOOKIES,
            attack_style="connect", attack_rate=2500.0, n_attackers=1,
            n_clients=1)).run()
        stats = result.botnet.bots[0].stats
        assert stats.pool_stalled > 0
        assert stats.attempts >= EPHEMERAL_SPAN
        assert result.tracker.counts("attacker")["attempts"] \
            == stats.attempts


class TestBotnet:
    def test_build_and_aggregate(self):
        net = MiniNet(n_attackers=3)
        net.server.tcp.listen(80, DefenseConfig(backlog=10_000))
        botnet = build_botnet(net.attackers, "syn", AttackerConfig(
            server_ip=net.server.address, rate=50.0))
        assert botnet.size == 3
        botnet.start()
        net.run(until=1.0)
        botnet.stop()
        assert botnet.aggregate_stats().syns_sent == pytest.approx(
            150, abs=3)

    def test_stagger_desynchronises(self):
        net = MiniNet(n_attackers=2)
        net.server.tcp.listen(80, DefenseConfig(backlog=10_000))
        botnet = build_botnet(net.attackers, "syn", AttackerConfig(
            server_ip=net.server.address, rate=10.0))
        botnet.start(stagger=0.05)
        net.run(until=1.0)
        botnet.stop()
        assert botnet.aggregate_stats().syns_sent >= 18

    def test_unknown_style_rejected(self):
        net = MiniNet(n_attackers=1)
        with pytest.raises(ExperimentError):
            build_botnet(net.attackers, "teardrop", AttackerConfig())

    def test_connect_style_builds_flooders(self):
        net = MiniNet(n_attackers=2)
        botnet = build_botnet(net.attackers, "connect", AttackerConfig(
            server_ip=net.server.address))
        assert all(isinstance(bot, ConnectionFlooder)
                   for bot in botnet.bots)
