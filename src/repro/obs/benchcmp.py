"""The benchmark regression gate: diff two ``BENCH_*.json`` manifest sets.

PR 1 made benchmark runs leave machine-readable manifests behind
(counters, engine statistics, runner accounting, and — since the
histogram layer — latency quantiles). This module closes the loop:
``tcp-puzzles bench-compare <baseline-dir> <current-dir>`` loads both
manifest sets, compares them metric by metric inside configurable
tolerance bands, and exits non-zero when anything regressed, so CI can
gate on the perf trajectory instead of writing it append-only.

What is compared, and how:

* **counters** — protocol behaviour; same config + seed must reproduce
  them, so the default tolerance is exact (any drift in either direction
  is a behaviour change);
* **perf** — direction-aware: ``wall_seconds`` up, or
  ``events_per_second`` / ``sim_wall_ratio`` down, beyond the tolerance
  is a regression; improvements are reported as notes;
* **latency histograms** (top-level and inside the ``runner`` block) —
  quantile *increases* beyond the tolerance are regressions; counts are
  held to the counter tolerance (deterministic sim-time data).
* **telemetry series** (the ``timeseries`` block) — deterministic like
  counters: sample-count or mass drift is a behaviour change.

One-sided entries are never silently skipped: a metric, histogram, or
series present only in the baseline is reported as lost coverage (a
regression); one present only in the current run is reported as a note.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.obs.hist import QUANTILE_LABELS

#: Manifest stems never compared (the session roll-up lists file names,
#: not measurements).
SKIPPED_MANIFESTS = frozenset({"session"})

#: perf-block keys → direction (+1: higher is worse, -1: lower is worse).
PERF_DIRECTIONS: Tuple[Tuple[str, int], ...] = (
    ("wall_seconds", +1),
    ("events_per_second", -1),
    ("sim_wall_ratio", -1),
)


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerance bands for one comparison run."""

    counters: float = 0.0     # exact: counters are deterministic
    perf: float = 0.30        # wall-clock noise allowance
    quantile: float = 0.25    # latency quantile drift allowance


@dataclass(frozen=True)
class Finding:
    """One compared metric that moved."""

    manifest: str
    metric: str
    baseline: Optional[float]
    current: Optional[float]
    severity: str             # "regression" | "note"
    message: str

    def render(self) -> str:
        marker = "FAIL" if self.severity == "regression" else "note"
        return (f"[{marker}] {self.manifest}: {self.metric} — "
                f"{self.message}")


@dataclass
class CompareReport:
    """Everything one bench-compare run decided."""

    baseline_dir: str
    current_dir: str
    manifests: List[str]
    findings: List[Finding]

    @property
    def regressions(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "regression"]

    @property
    def passed(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [f"bench-compare: {len(self.manifests)} manifest(s) "
                 f"({', '.join(self.manifests) or 'none'})"]
        for finding in self.findings:
            lines.append("  " + finding.render())
        verdict = "PASS" if self.passed else \
            f"FAIL ({len(self.regressions)} regression(s))"
        lines.append(f"bench-compare: {verdict}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_manifests(directory,
                   prefix: Optional[str] = None) -> Dict[str, dict]:
    """``BENCH_<name>.json`` bodies keyed by name, roll-ups skipped.

    With *prefix*, only manifests whose name starts with it load —
    ``bench-compare --prefix micro_`` gates the micro-benchmark suite in
    isolation.
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        raise ExperimentError(
            f"manifest directory {directory} does not exist")
    manifests: Dict[str, dict] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        if name in SKIPPED_MANIFESTS:
            continue
        if prefix is not None and not name.startswith(prefix):
            continue
        try:
            manifests[name] = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"manifest {path} is not valid JSON: "
                                  f"{exc}") from exc
    return manifests


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _relative(baseline: float, current: float) -> float:
    if baseline == 0.0:
        return 0.0 if current == 0.0 else float("inf")
    return (current - baseline) / abs(baseline)


def _number(value) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _compare_counters(name: str, base: dict, current: dict,
                      tolerance: Tolerance,
                      findings: List[Finding]) -> None:
    base_hosts = base.get("counters") or {}
    cur_hosts = current.get("counters") or {}
    for host in sorted(set(base_hosts) | set(cur_hosts)):
        base_scope = base_hosts.get(host) or {}
        cur_scope = cur_hosts.get(host) or {}
        for counter in sorted(set(base_scope) | set(cur_scope)):
            b = float(base_scope.get(counter, 0))
            c = float(cur_scope.get(counter, 0))
            if b == c:
                continue
            drift = _relative(b, c)
            if abs(drift) > tolerance.counters:
                findings.append(Finding(
                    manifest=name,
                    metric=f"counters.{host}.{counter}",
                    baseline=b, current=c, severity="regression",
                    message=f"{b:g} -> {c:g} ({drift:+.1%}), beyond "
                            f"counter tolerance {tolerance.counters:.1%}"))


def _compare_perf(name: str, base: dict, current: dict,
                  tolerance: Tolerance,
                  findings: List[Finding]) -> None:
    base_perf = base.get("perf") or {}
    cur_perf = current.get("perf") or {}
    for key, direction in PERF_DIRECTIONS:
        b = _number(base_perf.get(key))
        c = _number(cur_perf.get(key))
        if b is not None and c is None:
            findings.append(Finding(
                manifest=name, metric=f"perf.{key}",
                baseline=b, current=None, severity="regression",
                message="present in baseline but missing from current "
                        "manifest (lost perf coverage)"))
            continue
        if b is None and c is not None:
            findings.append(Finding(
                manifest=name, metric=f"perf.{key}",
                baseline=None, current=c, severity="note",
                message="new perf metric (no baseline to compare "
                        "against)"))
            continue
        if b is None or c is None or b <= 0.0:
            continue
        worse = _relative(b, c) * direction
        if worse > tolerance.perf:
            findings.append(Finding(
                manifest=name, metric=f"perf.{key}",
                baseline=b, current=c, severity="regression",
                message=f"{b:g} -> {c:g}, {worse:+.1%} worse than "
                        f"baseline (tolerance {tolerance.perf:.1%})"))
        elif worse < -tolerance.perf:
            findings.append(Finding(
                manifest=name, metric=f"perf.{key}",
                baseline=b, current=c, severity="note",
                message=f"{b:g} -> {c:g}, improved {-worse:.1%}"))


def _compare_histograms(name: str, prefix: str, base: dict, current: dict,
                        tolerance: Tolerance,
                        findings: List[Finding]) -> None:
    base_hists = base or {}
    cur_hists = current or {}
    for hist_name in sorted(set(base_hists) | set(cur_hists)):
        if hist_name not in cur_hists:
            findings.append(Finding(
                manifest=name, metric=f"{prefix}.{hist_name}",
                baseline=None, current=None, severity="regression",
                message="histogram present in baseline but missing from "
                        "current manifest (lost latency coverage)"))
            continue
        if hist_name not in base_hists:
            findings.append(Finding(
                manifest=name, metric=f"{prefix}.{hist_name}",
                baseline=None, current=None, severity="note",
                message="new histogram (no baseline to compare "
                        "against)"))
            continue
        b_hist = base_hists[hist_name] or {}
        c_hist = cur_hists[hist_name] or {}
        b_count = _number(b_hist.get("count")) or 0.0
        c_count = _number(c_hist.get("count")) or 0.0
        if b_count != c_count and \
                abs(_relative(b_count, c_count)) > tolerance.counters:
            findings.append(Finding(
                manifest=name,
                metric=f"{prefix}.{hist_name}.count",
                baseline=b_count, current=c_count,
                severity="regression",
                message=f"sample count {b_count:g} -> {c_count:g} "
                        f"(deterministic data; behaviour changed)"))
        b_q = b_hist.get("quantiles") or {}
        c_q = c_hist.get("quantiles") or {}
        for label, _q in QUANTILE_LABELS:
            b = _number(b_q.get(label))
            c = _number(c_q.get(label))
            if b is None or c is None or b <= 0.0:
                continue
            drift = _relative(b, c)
            if drift > tolerance.quantile:
                findings.append(Finding(
                    manifest=name,
                    metric=f"{prefix}.{hist_name}.{label}",
                    baseline=b, current=c, severity="regression",
                    message=f"latency {label} {b:.6g}s -> {c:.6g}s "
                            f"({drift:+.1%}, tolerance "
                            f"{tolerance.quantile:.1%})"))
            elif drift < -tolerance.quantile:
                findings.append(Finding(
                    manifest=name,
                    metric=f"{prefix}.{hist_name}.{label}",
                    baseline=b, current=c, severity="note",
                    message=f"latency {label} improved "
                            f"{-drift:.1%}"))


def _compare_timeseries(name: str, base: dict, current: dict,
                        tolerance: Tolerance,
                        findings: List[Finding]) -> None:
    """Telemetry series: one-sided coverage loss plus sample drift.

    Series are sim-time driven and deterministic, so like counters any
    change in sample count or total mass is a behaviour change, not
    noise.
    """
    base_series = base.get("timeseries") or {}
    cur_series = current.get("timeseries") or {}
    for series_name in sorted(set(base_series) | set(cur_series)):
        if series_name not in cur_series:
            findings.append(Finding(
                manifest=name, metric=f"timeseries.{series_name}",
                baseline=None, current=None, severity="regression",
                message="series present in baseline but missing from "
                        "current manifest (lost telemetry coverage)"))
            continue
        if series_name not in base_series:
            findings.append(Finding(
                manifest=name, metric=f"timeseries.{series_name}",
                baseline=None, current=None, severity="note",
                message="new telemetry series (no baseline to compare "
                        "against)"))
            continue
        b_samples = (base_series[series_name] or {}).get("samples") or []
        c_samples = (cur_series[series_name] or {}).get("samples") or []
        if len(b_samples) != len(c_samples):
            findings.append(Finding(
                manifest=name,
                metric=f"timeseries.{series_name}.samples",
                baseline=float(len(b_samples)),
                current=float(len(c_samples)), severity="regression",
                message=f"sample count {len(b_samples)} -> "
                        f"{len(c_samples)} (deterministic data; "
                        f"behaviour changed)"))
            continue
        b_mass = sum(float(v) for _t, v in b_samples)
        c_mass = sum(float(v) for _t, v in c_samples)
        if b_mass != c_mass and \
                abs(_relative(b_mass, c_mass)) > tolerance.counters:
            findings.append(Finding(
                manifest=name,
                metric=f"timeseries.{series_name}.mass",
                baseline=b_mass, current=c_mass,
                severity="regression",
                message=f"series mass {b_mass:g} -> {c_mass:g}, beyond "
                        f"counter tolerance {tolerance.counters:.1%}"))


def compare_manifest(name: str, base: dict, current: dict,
                     tolerance: Tolerance) -> List[Finding]:
    """Every finding from comparing one manifest pair."""
    findings: List[Finding] = []
    _compare_counters(name, base, current, tolerance, findings)
    _compare_perf(name, base, current, tolerance, findings)
    _compare_timeseries(name, base, current, tolerance, findings)
    _compare_histograms(name, "histograms",
                        base.get("histograms"),
                        current.get("histograms"), tolerance, findings)
    _compare_histograms(name, "runner.histograms",
                        (base.get("runner") or {}).get("histograms"),
                        (current.get("runner") or {}).get("histograms"),
                        tolerance, findings)
    return findings


def compare_dirs(baseline_dir, current_dir,
                 tolerance: Optional[Tolerance] = None,
                 prefix: Optional[str] = None) -> CompareReport:
    """Compare two manifest directories; missing coverage is a failure,
    and so is a comparison in which the two sides share no manifest.

    *prefix* restricts both sides to manifests whose name starts with it
    (see :func:`load_manifests`).
    """
    tolerance = tolerance if tolerance is not None else Tolerance()
    baseline = load_manifests(baseline_dir, prefix=prefix)
    current = load_manifests(current_dir, prefix=prefix)
    findings: List[Finding] = []
    shared = sorted(set(baseline) & set(current))
    if not shared:
        findings.append(Finding(
            manifest="(none)", metric="(manifest)", baseline=None,
            current=None, severity="regression",
            message=f"nothing compared: no BENCH_{prefix or ''}*.json "
                    f"manifest is in both directories"))
    for name in sorted(set(baseline) - set(current)):
        findings.append(Finding(
            manifest=name, metric="(manifest)", baseline=None,
            current=None, severity="regression",
            message="present in baseline but missing from current run "
                    "(lost benchmark coverage)"))
    for name in sorted(set(current) - set(baseline)):
        findings.append(Finding(
            manifest=name, metric="(manifest)", baseline=None,
            current=None, severity="note",
            message="new manifest (no baseline to compare against)"))
    for name in shared:
        findings.extend(compare_manifest(name, baseline[name],
                                         current[name], tolerance))
    return CompareReport(
        baseline_dir=str(baseline_dir), current_dir=str(current_dir),
        manifests=shared, findings=findings)
