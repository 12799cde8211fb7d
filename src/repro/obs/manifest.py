"""Run manifests: persist a run's counters + profile as ``BENCH_*.json``.

Every benchmark run should leave behind a machine-readable record of what
the stack actually did — counters, engine statistics, and (when profiling
was on) the per-callback wall-time table — so the perf trajectory across
PRs can be read straight from ``benchmarks/output/BENCH_*.json`` instead
of being reconstructed from printed tables.
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
from typing import Dict, Optional

from repro.obs.counters import drop_attribution, established_total
from repro.obs.profile import EngineProfiler
from repro.obs.timeseries import series_payload


def environment_info() -> Dict[str, str]:
    """Toolchain fingerprint stamped into every manifest."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
    }


def engine_payload(engine) -> Dict[str, object]:
    """``engine.stats()`` (already JSON-friendly)."""
    return dict(engine.stats())


def _handshake_attribution(hosts) -> Dict[str, object]:
    """Established total and drops by cause per host, from ``(host name,
    counters)`` pairs; hosts with neither are left out."""
    attribution: Dict[str, object] = {}
    for name, counters in hosts:
        drops = drop_attribution(counters)
        established = established_total(counters)
        if drops or established:
            attribution[name] = {
                "established": established,
                "drops": drops,
                "drops_total": sum(drops.values()),
            }
    return attribution


def hub_payload(hub, engine=None,
                profiler: Optional[EngineProfiler] = None
                ) -> Dict[str, object]:
    """Counters (+ per-listener drop attribution), histograms, and
    optional engine stats / profile from one
    :class:`~repro.obs.Observability` hub."""
    payload: Dict[str, object] = {"counters": hub.counters.snapshot()}
    hists = getattr(hub, "hist", None)
    if hists is not None and len(hists):
        payload["histograms"] = hists.snapshot()
    attribution = _handshake_attribution(
        (scope.name, scope) for scope in hub.counters.scopes())
    if attribution:
        payload["handshake_attribution"] = attribution
    if engine is not None:
        payload["engine"] = engine_payload(engine)
    if profiler is not None:
        payload["profile"] = profiler.snapshot()
        if profiler.hist.count:
            payload.setdefault("histograms", {})
            payload["histograms"][profiler.hist.name] = \
                profiler.hist.as_payload()
    return payload


def summary_payload(summary) -> Dict[str, object]:
    """Manifest body for a scenario *summary* (a finished, distilled run).

    Duck-typed so this module never imports the experiments layer:
    anything carrying ``counters`` / ``engine_stats`` / ``listener_stats``
    (and optionally ``profile``) mappings works — the engine statistics
    here include the wall-time fields, since manifests exist to track
    them.
    """
    payload: Dict[str, object] = {
        "counters": dict(summary.counters),
        "engine": dict(summary.engine_stats),
    }
    hists = getattr(summary, "histograms", None)
    if hists:
        payload["histograms"] = {name: hists[name].as_payload()
                                 for name in sorted(hists)}
    attribution = _handshake_attribution(summary.counters.items())
    if attribution:
        payload["handshake_attribution"] = attribution
    profile = getattr(summary, "profile", None)
    if profile is not None:
        payload["profile"] = profile
    series = getattr(summary, "timeseries", None)
    if series:
        payload["timeseries"] = series_payload(series)
    source = getattr(summary, "attribution", None)
    if source is not None:
        payload["attribution"] = source
    overload = getattr(summary, "overload", None)
    if overload is not None:
        payload["overload"] = overload
    stats = summary.listener_stats
    payload["listener_stats"] = {
        field: getattr(stats, field)
        for field in sorted(vars(stats))
    }
    return payload


def runner_payload(stats) -> Dict[str, object]:
    """Manifest block for a :class:`~repro.runner.RunnerStats` (or any
    object with an ``as_payload()``), under the key conventions the bench
    trajectory tooling reads."""
    payload = stats.as_payload() if hasattr(stats, "as_payload") \
        else dict(stats)
    return payload


def write_manifest(path, payload: Dict[str, object]) -> pathlib.Path:
    """Write *payload* (+ environment stamp) as pretty sorted JSON."""
    path = pathlib.Path(path)
    body = dict(payload)
    body.setdefault("environment", environment_info())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    return path
