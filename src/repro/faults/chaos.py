"""The chaos harness: a canonical fault matrix and its resilience report.

``tcp-puzzles chaos`` runs the same scenario once per fault class (plus a
fault-free baseline), with the runtime invariant checker attached to
every cell, and reports how much each degraded condition costs in client
goodput, handshake completion, and latency. The cells are ordinary
:class:`~repro.runner.SweepRunner` cells — cached, parallel-safe, and
keyed by ``(config, schedule)`` — so re-running a matrix after a code
change only recomputes what the change invalidated.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.faults.schedule import (ClockSkew, FaultSchedule, LinkFlap,
                                   LossBurst, MemoryPressure,
                                   OptionCorruption, SecretRotation)

#: Histogram the latency column reads (recorded by the benign clients).
LATENCY_HIST = "handshake_latency.client"


@dataclass(frozen=True)
class ChaosSpec:
    """One chaos cell: a scenario config plus the faults to inject.

    Frozen and built from hashable parts, so it canonicalizes into a
    sweep cache key exactly like a plain config does.
    """

    config: object                      # ScenarioConfig
    schedule: FaultSchedule
    invariant_interval: float = 0.25


def run_chaos_summary(spec: ChaosSpec):
    """The chaos sweep cell: one faulted scenario run, summarized.

    Module-level and driven entirely by the picklable spec, per the
    :mod:`repro.runner` determinism contract. An invariant violation
    propagates — a chaos matrix with broken bookkeeping must fail loud,
    not average the corruption into a summary row.
    """
    from repro.experiments.scenario import Scenario
    from repro.experiments.summary import summarize

    scenario = Scenario(spec.config, faults=spec.schedule,
                        invariant_interval=spec.invariant_interval)
    return summarize(scenario.run())


def default_fault_matrix(config) -> "OrderedDict[str, FaultSchedule]":
    """One schedule per fault class, windowed to the attack interval.

    The baseline (empty schedule) comes first — the report computes
    degradation relative to it.
    """
    start, end = config.attack_start, config.attack_end
    if end <= start:
        start, end = 0.0, config.duration
    span = end - start
    mid = (start + end) / 2.0
    matrix: "OrderedDict[str, FaultSchedule]" = OrderedDict()
    matrix["baseline"] = FaultSchedule()
    matrix["loss-burst"] = FaultSchedule(
        loss_bursts=(LossBurst(start, end),))
    matrix["link-flap"] = FaultSchedule(
        link_flaps=(LinkFlap(mid - span / 8, mid + span / 8,
                             links="server->r1"),))
    matrix["corruption"] = FaultSchedule(
        corruption=(OptionCorruption(start, end, probability=0.3),))
    # A +5 s wall-clock step dwarfs the scheme's replay window, so every
    # in-flight challenge goes stale at the step; jitter keeps it noisy.
    matrix["clock-skew"] = FaultSchedule(
        clock_skews=(ClockSkew(host="server", at=mid, offset=5.0,
                               jitter=0.5),))
    matrix["memory-pressure"] = FaultSchedule(
        memory_pressure=(MemoryPressure(start, end, listen_factor=0.25,
                                        accept_factor=0.5),))
    matrix["secret-rotation"] = FaultSchedule(
        secret_rotations=(SecretRotation(times=(start, mid, end)),))
    return matrix


#: Eviction policy exercised by each sustained-overload row.
OVERLOAD_POLICIES = OrderedDict((
    ("overload-oldest", "oldest-per-bucket"),
    ("overload-random", "random-evict"),
    ("overload-reject", "reject-new"),
))


def overload_matrix(config, invariant_interval: float = 0.25,
                    ) -> "OrderedDict[str, ChaosSpec]":
    """Sustained-overload cells: one 10x-capacity SYN flood per policy.

    Every row runs the full graceful-degradation ladder — a small
    memory-budgeted syncache (256-entry budget against a
    multi-thousand-SYN/s spoofed flood), syncookie fallback above the
    high watermark, admission control, and the overload watchdog — with
    an empty fault schedule: the *flood itself* is the fault. The row
    label selects the overflow policy under test.
    """
    from dataclasses import replace

    from repro.tcp.constants import DefenseMode
    from repro.tcp.overload import OverloadConfig
    from repro.tcp.syncache import ENTRY_BYTES

    matrix: "OrderedDict[str, ChaosSpec]" = OrderedDict()
    for label, policy in OVERLOAD_POLICIES.items():
        overload = OverloadConfig(
            syncache_buckets=64,
            syncache_bucket_limit=8,
            syncache_policy=policy,
            syncache_memory_budget=256 * ENTRY_BYTES,
            syncache_lifetime=0.5,
            high_watermark=0.85,
            low_watermark=0.60,
            # Generous global bucket (never throttles the benign load);
            # the per-prefix tiers clamp sources the SpaceSaving sketch
            # flags as heavy.
            syn_rate_limit=10_000.0,
            syn_burst=256.0,
            heavy_hitter_slots=16,
            heavy_hitter_rate=100.0,
            heavy_hitter_min=256,
            prefix_bits=16,
            watchdog_interval=0.25,
            # The cookie fallback caps occupancy at the high watermark
            # (0.85), so the OVERLOAD threshold must sit below it or the
            # watchdog plateaus in PRESSURE forever.
            pressure_occupancy=0.50,
            overload_occupancy=0.80,
            recovery_hold=1.0,
        )
        cell = replace(config, defense=DefenseMode.SYNCACHE,
                       attack_style="syn", attack_enabled=True,
                       overload=overload)
        matrix[label] = ChaosSpec(cell, FaultSchedule(),
                                  invariant_interval=invariant_interval)
    return matrix


def sustained_overload_verdict(summary,
                               latency_bound_s: float = 5.0,
                               ) -> Dict[str, object]:
    """Pass/fail checks for one sustained-overload row.

    A row passes when the watchdog actually visited OVERLOAD and walked
    back to NORMAL, the memory budget held at peak, the benign p99
    handshake latency stayed bounded, and every established connection
    is MIB-attributed to exactly one serving path (syncache or the
    cookie fallback — never the stock or puzzle paths, which a SYNCACHE
    defense must not take).
    """
    snapshot = summary.overload or {}
    transitions = snapshot.get("transitions", {})
    reached = any(key.endswith("->OVERLOAD") for key in transitions)
    recovered = snapshot.get("state") == "NORMAL"
    syncache = snapshot.get("syncache") or {}
    budget = syncache.get("memory_budget")
    peak_bytes = snapshot.get("peak_occupancy_bytes", 0)
    memory_bounded = budget is None or peak_bytes <= budget
    hist = summary.histograms.get(LATENCY_HIST)
    p99 = hist.quantile(0.99) if hist is not None and hist.count else None
    latency_bounded = p99 is not None and p99 <= latency_bound_s
    mib = summary.counters.get("server", {})
    estab_cache = mib.get("EstabSynCache", 0)
    estab_cookie = mib.get("EstabCookie", 0)
    attributed = mib.get("EstabNormal", 0) + mib.get("EstabPuzzle", 0) == 0
    checks = {
        "reached_overload": reached,
        "recovered_to_normal": recovered,
        "memory_bounded": memory_bounded,
        "latency_bounded": latency_bounded,
        "paths_attributed": attributed,
    }
    return {
        "ok": all(checks.values()),
        "checks": checks,
        "peak_occupancy_bytes": peak_bytes,
        "memory_budget": budget,
        "latency_p99_s": p99,
        "estab_syncache": estab_cache,
        "estab_cookie_fallback": estab_cookie,
        "cookie_fallbacks": snapshot.get("cookie_fallbacks", 0),
        "rejected": syncache.get("rejected", 0),
        "transitions": dict(transitions),
    }


def render_overload_report(labels: Sequence[str],
                           verdicts: Sequence[Dict[str, object]]) -> str:
    """Monospace sustained-overload verdict table."""
    from repro.experiments.report import render_table

    headers = ("cell", "verdict", "peak bytes", "budget", "p99 s",
               "estab cache", "estab cookie", "rejected")
    rows = []
    for label, verdict in zip(labels, verdicts):
        failed = [name for name, ok in verdict["checks"].items()
                  if not ok]
        status = "PASS" if verdict["ok"] else "FAIL:" + ",".join(failed)
        rows.append((label, status, verdict["peak_occupancy_bytes"],
                     verdict["memory_budget"], verdict["latency_p99_s"],
                     verdict["estab_syncache"],
                     verdict["estab_cookie_fallback"],
                     verdict["rejected"]))
    return render_table(headers, rows)


# ----------------------------------------------------------------------
def _latency_p95_ms(summary) -> float:
    hist = summary.histograms.get(LATENCY_HIST)
    if hist is None or not hist.count:
        return float("nan")
    return hist.quantile(0.95) * 1000.0


def resilience_report(labels: Sequence[str],
                      summaries: Sequence) -> List[Dict[str, object]]:
    """Per-fault-class degradation rows; ``labels[0]`` is the baseline."""
    rows: List[Dict[str, object]] = []
    baseline_goodput: Optional[float] = None
    baseline_p95: Optional[float] = None
    for label, summary in zip(labels, summaries):
        goodput = summary.client_throughput_during_attack().mean
        p95_ms = _latency_p95_ms(summary)
        if baseline_goodput is None:
            baseline_goodput, baseline_p95 = goodput, p95_ms
        goodput_drop = float("nan")
        if baseline_goodput and not math.isnan(goodput):
            goodput_drop = 100.0 * (1.0 - goodput / baseline_goodput)
        latency_increase = float("nan")
        if (baseline_p95 and not math.isnan(p95_ms)
                and not math.isnan(baseline_p95)):
            latency_increase = 100.0 * (p95_ms / baseline_p95 - 1.0)
        fault_stats = summary.fault_stats or {}
        rows.append({
            "fault": label,
            "goodput_mbps": goodput,
            "goodput_drop_pct": goodput_drop,
            "completion_pct": summary.client_completion_percent(),
            "latency_p95_ms": p95_ms,
            "latency_increase_pct": latency_increase,
            "invariant_checks": summary.invariant_checks,
            "fault_events": sum(fault_stats.values()),
            "fault_stats": fault_stats,
        })
    return rows


def render_resilience(rows: Sequence[Dict[str, object]]) -> str:
    """Monospace resilience table for terminal output."""
    from repro.experiments.report import render_table

    headers = ("fault", "goodput Mb/s", "drop %", "completion %",
               "p95 ms", "p95 +%", "inv checks", "fault events")
    return render_table(headers, [
        (row["fault"], row["goodput_mbps"], row["goodput_drop_pct"],
         row["completion_pct"], row["latency_p95_ms"],
         row["latency_increase_pct"], row["invariant_checks"],
         row["fault_events"])
        for row in rows
    ])
