"""Ablation benches for the design choices DESIGN.md calls out."""

import pytest

from benchmarks.conftest import bench_scenario_config, emit
from repro.experiments.ablations import (
    controller_ablation,
    expiry_window_ablation,
    finite_n_convergence,
    syncache_ablation,
)
from repro.experiments.report import render_table


def test_ablation_opportunistic_controller(benchmark):
    """Opportunistic vs always-on challenges, with and without attack.

    The opportunistic controller's payoff: zero challenges (and full-speed
    handshakes) when there is no attack."""
    base = bench_scenario_config(time_scale=0.03)
    rows = benchmark.pedantic(controller_ablation, args=(base,),
                              rounds=1, iterations=1)
    emit("ablation_controller", render_table(
        ["controller", "attack", "client Mbps", "completion %",
         "challenges sent", "attacker cps"],
        [(r.controller, r.attack, r.client_mean_mbps,
          r.client_completion_percent, r.challenges_sent,
          r.attacker_established_rate) for r in rows]))
    by_key = {(r.controller, r.attack): r for r in rows}
    # No attack: opportunistic sends no challenges; always-on taxes every
    # handshake.
    assert by_key[("opportunistic", False)].challenges_sent == 0
    assert by_key[("always-on", False)].challenges_sent > 0
    # Under attack both protect.
    assert by_key[("opportunistic", True)].client_completion_percent > 40
    assert by_key[("always-on", True)].client_completion_percent > 40


def test_ablation_expiry_window(benchmark):
    """Replay defence: windows shorter than the replay delay reject all."""
    rows = benchmark.pedantic(
        expiry_window_ablation,
        kwargs=dict(windows=(0.5, 2.0, 8.0, 32.0), replay_delay=4.0),
        rounds=1, iterations=1)
    emit("ablation_expiry", render_table(
        ["window (s)", "replays", "accepted", "acceptance rate"],
        [(r.window, r.replayed, r.accepted, r.acceptance_rate)
         for r in rows]))
    by_window = {r.window: r for r in rows}
    assert by_window[0.5].accepted == 0
    assert by_window[2.0].accepted == 0
    assert by_window[8.0].accepted > 0   # replay within window succeeds...
    # ...which is why the paper pairs expiry with per-flow binding: a
    # replayed solution occupies at most one queue slot.


def test_ablation_syncache_churn(benchmark):
    """§2.1: SYN caches churn under rates beyond their capacity."""
    rows = benchmark.pedantic(syncache_ablation, rounds=1, iterations=1)
    emit("ablation_syncache", render_table(
        ["capacity", "attack rate (pps)", "evictions",
         "benign survival fraction"],
        [(r.capacity, r.attack_rate, r.evictions, r.survival_fraction)
         for r in rows]))
    # Bigger caches survive a given rate better; higher rates hurt.
    small_fast = [r for r in rows
                  if r.capacity == min(x.capacity for x in rows)
                  and r.attack_rate == max(x.attack_rate for x in rows)][0]
    big_slow = [r for r in rows
                if r.capacity == max(x.capacity for x in rows)
                and r.attack_rate == min(x.attack_rate for x in rows)][0]
    assert big_slow.survival_fraction >= small_fast.survival_fraction


def test_ablation_synack_retries(benchmark):
    """DESIGN.md's protection-locking analysis: the SYN-ACK retry
    lifetime is not part of the lock. With one retry (~3 s half-open
    lifetime) the flood still keeps the listen queue full, and the
    attackers' steady rate matches the Linux default's (5 retries,
    ~63 s) to within 10% (DESIGN.md tabulates the measured gaps, none
    above 4.2%)."""
    from repro.experiments.scenario import Scenario
    from repro.tcp.constants import DefenseMode

    def run(retries: int):
        config = bench_scenario_config(time_scale=0.03,
                                       defense=DefenseMode.PUZZLES)
        scenario = Scenario(config)
        result = scenario.build()
        listener = result.server_app.listener
        listener.config.synack_retries = retries
        scenario.drive(result)
        start, end = result.attack_window()
        fill = (result.queues.listen_depth.mean_in((start + end) / 2, end)
                / listener.listen_queue.backlog)
        return result.attacker_steady_state_rate(), fill

    def both():
        return run(1), run(5)

    (short, short_fill), (linux_default, default_fill) = \
        benchmark.pedantic(both, rounds=1, iterations=1)
    emit("ablation_synack_retries", render_table(
        ["synack_retries", "half-open lifetime", "attacker steady cps",
         "listen queue fill"],
        [(1, "~3 s", short, short_fill),
         (5, "~63 s (Linux default)", linux_default, default_fill)]))
    assert abs(short - linux_default) <= 0.10 * max(short, linux_default)
    assert min(short_fill, default_fill) >= 0.99


def test_ablation_parameter_sensitivity(benchmark):
    """Operator guidance: how wrong can the §4.3 estimates be?"""
    from repro.core.sensitivity import (
        alpha_misestimation_sweep,
        safe_estimate_band,
        w_av_misestimation_sweep,
    )

    def run():
        return (w_av_misestimation_sweep(),
                alpha_misestimation_sweep(),
                safe_estimate_band())

    w_rows, a_rows, band = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("ablation_sensitivity",
         "w_av misestimation (tune for factor x true):\n"
         + render_table(
             ["factor", "(k, m)", "feasible", "x_bar", "bot solves/s"],
             [(r.estimate_factor, f"({r.params.k}, {r.params.m})",
               r.feasible, r.total_rate, r.attacker_solves_per_second)
              for r in w_rows])
         + "\n\nalpha misestimation:\n"
         + render_table(
             ["factor", "(k, m)", "feasible", "x_bar", "bot solves/s"],
             [(r.estimate_factor, f"({r.params.k}, {r.params.m})",
               r.feasible, r.total_rate, r.attacker_solves_per_second)
              for r in a_rows])
         + f"\n\nsafe w_av over-estimation band: {band[0]:.2f}x to "
         f"{band[1]:.2f}x")
    # The asymmetry: overestimating w_av 4x ejects the clientele;
    # misestimating alpha 4x either way never does.
    assert not [r for r in w_rows if r.estimate_factor == 4.0][0].feasible
    assert all(r.feasible for r in a_rows)
