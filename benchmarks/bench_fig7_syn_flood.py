"""Figure 7: client/server throughput during a spoofed SYN flood, under
no defense / SYN cookies / puzzles (1,8) / puzzles (2,17)."""

import pytest

from benchmarks.conftest import bench_scenario_config, emit, record_manifest
from repro.experiments.exp2_floods import run_syn_flood_suite_report
from repro.experiments.report import render_table
from repro.obs import TelemetrySpec, drop_attribution


@pytest.fixture(scope="module")
def report():
    # Streaming telemetry rides the flood benchmark: the manifests gain
    # a deterministic "timeseries" block (rates/gauges per defense) and
    # a bounded-memory per-source "attribution" block.
    return run_syn_flood_suite_report(
        bench_scenario_config(attack_style="syn",
                              telemetry=TelemetrySpec(attribution=True)))


@pytest.fixture(scope="module")
def suite(report):
    return report[0]


def test_fig7_syn_flood_throughput(benchmark, suite):
    def extract():
        rows = []
        for label, result in suite.items():
            rows.append((
                label,
                result.client_throughput_before_attack().mean,
                result.client_throughput_during_attack().mean,
                result.server_throughput_during_attack().mean,
                result.client_completion_percent()))
        return rows

    rows = benchmark(extract)
    emit("fig7_syn_flood", render_table(
        ["defense", "client Mbps (pre)", "client Mbps (attack)",
         "server Mbps (attack)", "client completion %"], rows))

    by_label = {row[0]: row for row in rows}
    pre = by_label["nodefense"][1]
    # No defense collapses; cookies and easy puzzles hold; Nash puzzles
    # reduce but preserve service — the paper's Figure 7 story.
    assert by_label["nodefense"][2] < pre * 0.35
    assert by_label["cookies"][2] > pre * 0.7
    assert by_label["challenges-m8"][2] > pre * 0.7
    assert 0 < by_label["challenges-m17"][2] < pre
    assert by_label["challenges-m17"][4] > 90.0


def test_fig7_counters_attribute_every_drop(report):
    """Observability acceptance: the SNMP counters account for every SYN
    and for every refused/failed handshake exactly once. Also persists a
    ``BENCH_fig7_*.json`` run manifest per defense configuration,
    carrying the sweep runner's accounting."""
    suite, runner_stats = report
    for label, result in suite.items():
        # Summaries carry the counter snapshot, not the live scope.
        server = result.counters["server"]

        def count(name):
            return server.get(name, 0)

        # SYN conservation: each SYN draws one first SYN-ACK, challenge
        # or cookie, or one SYN-side refusal.
        assert count("SynsRecv") == (
            count("SynAcksSent") - count("SynAckRetrans")
            + count("PuzzlesIssued") + count("SynCookiesSent")
            + count("ListenOverflows") + count("AdmissionDrops")
            + count("SynCacheRejects"))

        # Exactly-one-cause attribution: the disjoint cause counters sum
        # to the refusals the listener's stats (a view of the MIB) book.
        stats = result.listener_stats
        drops = drop_attribution(server)
        assert sum(drops.values()) == (
            stats.syn_drops_queue_full + stats.half_open_expired
            + stats.accept_drops_full + stats.acks_ignored_queue_full
            + stats.solutions_invalid + stats.cookies_invalid
            + count("SynCacheEvictions")
            + count("SynCacheMisses"))

        record_manifest(f"fig7_{label}", result=result,
                        runner_stats=runner_stats)


def test_fig7_manifests_carry_streaming_telemetry(suite):
    """Telemetry acceptance: every fig7 defense summary carries the
    sim-time series (so its manifest gains the ``timeseries`` block) and
    the bounded-memory per-source attribution digest."""
    for label, result in suite.items():
        assert result.timeseries, label
        syn_rate = result.timeseries.get("rate.SynsRecv")
        assert syn_rate is not None and len(syn_rate) > 0
        # Samples land on exact cadence multiples (mergeable alignment).
        cadence = syn_rate.cadence
        for t, _value in syn_rate.samples():
            assert t == round(t / cadence) * cadence
        assert result.attribution is not None
        assert result.attribution["syns"]["top"], label


def test_fig7_sparkline_challenged_fraction(benchmark, suite):
    """The sparkline: during the attack most SYN-ACKs carry challenges."""
    result = suite["challenges-m17"]

    def fractions():
        stats = result.listener_stats
        total = stats.synacks_plain + stats.synacks_challenge
        return stats.synacks_challenge / total

    challenged = benchmark(fractions)
    emit("fig7_sparkline",
         f"challenged SYN-ACK fraction (whole run): {challenged:.3f}")
    assert challenged > 0.5
