"""Cross-module integration tests: full attack/defense dynamics.

These exercise the whole stack — engine, network, TCP, puzzles, hosts,
metrics — against the qualitative claims of the paper's evaluation, at the
smallest scales where the claims are observable.
"""

import numpy as np
import pytest

from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.puzzles.params import PuzzleParams
from repro.tcp.constants import DefenseMode
from tests.experiments.test_scenario import fast_config


class TestSynFloodDynamics:
    """Figure 7's story, end to end."""

    def _run(self, **overrides):
        return Scenario(fast_config(attack_style="syn", **overrides)).run()

    def test_nodefense_collapses_under_flood(self):
        result = self._run(defense=DefenseMode.NONE)
        before = result.client_throughput_before_attack().mean
        during = result.client_throughput_during_attack().mean
        assert during < before * 0.35
        assert result.listener_stats.syn_drops_queue_full > 0

    def test_cookies_hold_throughput(self):
        result = self._run(defense=DefenseMode.SYNCOOKIES)
        before = result.client_throughput_before_attack().mean
        during = result.client_throughput_during_attack().mean
        assert during > before * 0.7
        assert result.client_completion_percent() > 90.0

    def test_easy_puzzles_hold_throughput(self):
        result = self._run(defense=DefenseMode.PUZZLES,
                           puzzle_params=PuzzleParams(k=1, m=8))
        assert result.client_completion_percent() > 90.0

    def test_nash_puzzles_reduce_but_preserve_service(self):
        result = self._run(defense=DefenseMode.PUZZLES,
                           puzzle_params=PuzzleParams(k=2, m=17))
        before = result.client_throughput_before_attack().mean
        during = result.client_throughput_during_attack().mean
        assert 0.0 < during < before          # reduced...
        assert result.client_completion_percent() > 80.0  # ...but served

    def test_spoofed_flood_never_establishes(self):
        result = self._run(defense=DefenseMode.PUZZLES)
        assert result.server_established["attacker"].total == 0


class TestConnectionFloodDynamics:
    """Figures 8–11's story, end to end."""

    def _run(self, **overrides):
        return Scenario(fast_config(attack_style="connect",
                                    **overrides)).run()

    def test_cookies_do_not_help(self):
        cookies = self._run(defense=DefenseMode.SYNCOOKIES)
        nodefense = self._run(defense=DefenseMode.NONE)
        # Both collapse: cookies address the listen queue, not the accept
        # queue a connection flood targets.
        assert cookies.client_completion_percent() < 25.0
        assert nodefense.client_completion_percent() < 25.0

    def test_puzzles_lock_out_the_flood(self):
        result = self._run(defense=DefenseMode.PUZZLES)
        cookies = self._run(defense=DefenseMode.SYNCOOKIES)
        assert result.attacker_steady_state_rate() < \
            cookies.attacker_steady_state_rate() / 3
        assert result.client_completion_percent() > 50.0

    def test_queue_states_match_figure_10(self):
        """Challenges: listen saturated, accept (eventually) drained;
        cookies: both queues pinned full."""
        puzzles = self._run(defense=DefenseMode.PUZZLES)
        start, end = puzzles.attack_window()
        mid = (start + end) / 2.0
        listen_depth = puzzles.queues.listen_depth.mean_in(mid, end)
        accept_depth = puzzles.queues.accept_depth.mean_in(mid, end)
        assert listen_depth > 0.9 * puzzles.config.backlog
        assert accept_depth < 0.5 * puzzles.config.accept_backlog

        cookies = self._run(defense=DefenseMode.SYNCOOKIES)
        accept_cookies = cookies.queues.accept_depth.mean_in(mid, end)
        assert accept_cookies > 0.9 * cookies.config.accept_backlog

    def test_cpu_profile_matches_figure_9(self):
        """Attacker CPU >> client CPU >> server CPU during the attack."""
        result = self._run(defense=DefenseMode.PUZZLES)
        start, end = result.attack_window()
        server = result.cpu.mean_in("server", start, end)
        client = result.cpu.mean_in("client0", start, end)
        attacker = result.cpu.mean_in("attacker0", start, end)
        assert server < 5.0
        assert attacker > 50.0
        assert client > server

    def test_solving_is_what_rate_limits(self):
        """Non-solving bots fare no better than solving ones at Nash
        difficulty — both are locked out; the solver at least gets its
        CPU-bound trickle."""
        solving = self._run(defense=DefenseMode.PUZZLES,
                            attackers_solve=True)
        refusing = self._run(defense=DefenseMode.PUZZLES,
                             attackers_solve=False)
        assert refusing.attacker_steady_state_rate() <= \
            solving.attacker_steady_state_rate() + 5.0

    def test_challenged_fraction_rises_during_attack(self):
        """The Figure 7/8 sparkline: challenges only under pressure."""
        result = self._run(defense=DefenseMode.PUZZLES)
        challenged = result.listener_stats.synacks_challenge
        plain = result.listener_stats.synacks_plain
        assert challenged > plain  # flood-dominated run

    def test_no_attack_means_no_challenges(self):
        result = self._run(defense=DefenseMode.PUZZLES,
                           attack_enabled=False)
        assert result.listener_stats.synacks_challenge == 0
        assert result.client_completion_percent() != \
            result.client_completion_percent() * 0  # has data
        counts = result.tracker.counts("client")
        assert counts["challenged"] == 0


class TestRecovery:
    def test_server_recovers_after_syn_flood_with_cookies(self):
        result = Scenario(fast_config(
            attack_style="syn", defense=DefenseMode.SYNCOOKIES,
            time_scale=0.03)).run()
        end = result.config.attack_end
        duration = result.config.duration
        times, mbps = result.client_throughput.rx_mbps(duration)
        post = mbps[(times >= end + 1.0)]
        assert post.size > 0
        pre = result.client_throughput_before_attack().mean
        assert np.mean(post) > pre * 0.5


class TestDeterminism:
    def test_full_scenario_reproducible(self):
        a = Scenario(fast_config(defense=DefenseMode.PUZZLES)).run()
        b = Scenario(fast_config(defense=DefenseMode.PUZZLES)).run()
        assert a.server_established["attacker"].total == \
            b.server_established["attacker"].total
        assert a.listener_stats.synacks_challenge == \
            b.listener_stats.synacks_challenge
        assert a.engine.events_processed == b.engine.events_processed


class TestSparklineSeries:
    """The Figures 7–8 sparkline, as a time series: the challenged
    fraction is ~0 before the attack, high during, decaying after."""

    def test_challenged_fraction_timeline(self):
        from repro.experiments.scenario import Scenario
        from repro.metrics.series import BinnedSeries

        config = fast_config(defense=DefenseMode.PUZZLES,
                             time_scale=0.03)
        scenario = Scenario(config)
        result = scenario.build()
        challenged = BinnedSeries(bin_width=1.0)
        plain = BinnedSeries(bin_width=1.0)
        listener = result.server_app.listener
        original = listener.host.send

        def spy(packet):
            if packet.is_synack:
                if packet.options.challenge is not None:
                    challenged.add(result.engine.now)
                else:
                    plain.add(result.engine.now)
            original(packet)

        listener.host.send = spy
        scenario.drive(result)
        start, end = result.attack_window()
        # Whole bins only: stop one bin short of the attack boundary.
        pre = challenged.window_sum(0.0, start - 1.0)
        during = challenged.window_sum(start + 1.0, end)
        during_plain = plain.window_sum(start + 1.0, end)
        assert pre == 0                       # dark ticks only, at peace
        assert during > during_plain          # bright ticks dominate
        # ...but openings still produce some unchallenged SYN-ACKs (the
        # opportunistic controller's signature dark ticks mid-attack).
        assert during_plain >= 0


class TestMultiVector:
    """The paper's motivation: attacks combine vectors. Puzzles cover the
    state-exhaustion family with one mechanism."""

    def test_mixed_attack_tolerated_by_puzzles(self):
        mixed = Scenario(fast_config(defense=DefenseMode.PUZZLES,
                                     attack_style="mixed",
                                     n_attackers=4)).run()
        assert mixed.client_completion_percent() > 50.0
        assert mixed.attacker_steady_state_rate() < 40.0

    def test_mixed_attack_defeats_cookies(self):
        """Cookies absorb the SYN half but not the connection half."""
        mixed = Scenario(fast_config(defense=DefenseMode.SYNCOOKIES,
                                     attack_style="mixed",
                                     n_attackers=4)).run()
        assert mixed.client_completion_percent() < 30.0

    def test_mixed_botnet_composition(self):
        from repro.hosts.attacker import ConnectionFlooder, SynFlooder

        result = Scenario(fast_config(attack_style="mixed",
                                      n_attackers=4)).build()
        kinds = [type(bot) for bot in result.botnet.bots]
        assert kinds.count(SynFlooder) == 2
        assert kinds.count(ConnectionFlooder) == 2
