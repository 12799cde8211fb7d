"""Log-bucketed latency histograms: mergeable, picklable, quantile-ready.

The paper's evaluation is about *latency distributions under load* —
Figure 6's connection-time CDFs, Figure 12's boxplots — so the stack
records durations into HDR-style histograms with **fixed** logarithmic
bucket boundaries. Fixed boundaries are the load-bearing property:

* two histograms of the same layout merge by adding bucket counts, so a
  parallel sweep's per-worker histograms combine into exactly what a
  serial run would have produced (order-independent, associative);
* a histogram is plain data (no engine reference), so it pickles into
  :class:`~repro.experiments.summary.ScenarioSummary` and crosses
  process boundaries / the on-disk result cache untouched;
* quantiles (p50/p95/p99/p99.9) come from a cumulative walk with
  geometric interpolation inside the hit bucket — bounded relative error
  of one bucket width (~12% at 20 buckets/decade), which is plenty for
  regression gating.

The default layout spans 1 µs to 10 ks in 200 buckets (10 decades × 20
buckets/decade). Durations below the lowest bound clamp into bucket 0,
above the highest into the last bucket; the exact ``min``/``max``/``sum``
are tracked alongside, so clamping never corrupts the summary stats.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import SimulationError

#: Default layout: 1 µs lower bound, 10 decades, 20 buckets per decade.
DEFAULT_LOWEST = 1e-6
DEFAULT_DECADES = 10
DEFAULT_BUCKETS_PER_DECADE = 20

#: The quantiles every exporter/manifests surface, label → q.
QUANTILE_LABELS: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
    ("p99.9", 0.999),
)

#: What each histogram family measures (base name, before any ``.label``
#: suffix). HELP strings for the Prometheus exposition and the docs.
CATALOGUE = {
    "handshake_latency":
        "connection-establishment time, SYN sent to ESTABLISHED, as seen "
        "by the initiating host (seconds; per tracker label)",
    "puzzle_solve":
        "client-side puzzle solve time, challenge received to solution "
        "sent (seconds)",
    "accept_wait":
        "time an established connection waits in the accept queue before "
        "the application accept()s it (seconds)",
    "micro_op":
        "wall-clock seconds per micro-benchmark operation, one sample "
        "per timed repeat (same-machine comparisons only)",
}


def family(name: str) -> str:
    """The catalogue family of a histogram name (strips ``.label``)."""
    return name.split(".", 1)[0]


def describe(name: str) -> str:
    """Catalogue description for a histogram name, or the name itself."""
    return CATALOGUE.get(family(name), name)


class Histogram:
    """One log-bucketed duration histogram with exact count/sum/min/max."""

    __slots__ = ("name", "lowest", "buckets_per_decade", "n_buckets",
                 "count", "total", "minimum", "maximum", "counts")

    def __init__(self, name: str = "",
                 lowest: float = DEFAULT_LOWEST,
                 buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE,
                 decades: int = DEFAULT_DECADES) -> None:
        if lowest <= 0.0:
            raise SimulationError(
                f"histogram lowest bound must be > 0, got {lowest}")
        if buckets_per_decade < 1 or decades < 1:
            raise SimulationError(
                "histogram needs >= 1 bucket per decade and >= 1 decade")
        self.name = name
        self.lowest = float(lowest)
        self.buckets_per_decade = int(buckets_per_decade)
        self.n_buckets = int(buckets_per_decade) * int(decades)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        # Sparse index → count map: scenarios touch a handful of decades,
        # and sparse merges/pickles stay proportional to what was hit.
        self.counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def layout(self) -> Tuple[float, int, int]:
        """(lowest, buckets_per_decade, n_buckets) — merge compatibility."""
        return (self.lowest, self.buckets_per_decade, self.n_buckets)

    def bucket_index(self, value: float) -> int:
        """Bucket for *value*; out-of-range values clamp to the ends."""
        if value <= self.lowest:
            return 0
        index = int(math.log10(value / self.lowest)
                    * self.buckets_per_decade)
        return index if index < self.n_buckets else self.n_buckets - 1

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """(lower, upper) value bounds of bucket *index*."""
        lower = self.lowest * 10.0 ** (index / self.buckets_per_decade)
        upper = self.lowest * 10.0 ** ((index + 1)
                                       / self.buckets_per_decade)
        return lower, upper

    # ------------------------------------------------------------------
    # Recording and merging
    # ------------------------------------------------------------------
    def record(self, value: float, n: int = 1) -> None:
        """Record *value* (seconds, >= 0) *n* times."""
        if value < 0.0:
            raise SimulationError(
                f"cannot record negative duration {value} into "
                f"histogram {self.name!r}")
        index = self.bucket_index(value)
        self.counts[index] = self.counts.get(index, 0) + n
        self.count += n
        self.total += value * n
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other* into this histogram; layouts must match."""
        if other.layout != self.layout:
            raise SimulationError(
                f"cannot merge histograms with layouts {self.layout} "
                f"and {other.layout}")
        for index, n in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        if other.count:
            self.minimum = min(self.minimum, other.minimum)
            self.maximum = max(self.maximum, other.maximum)
        return self

    def copy(self) -> "Histogram":
        decades = self.n_buckets // self.buckets_per_decade
        clone = Histogram(self.name, lowest=self.lowest,
                          buckets_per_decade=self.buckets_per_decade,
                          decades=decades)
        return clone.merge(self)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Value at quantile *q* in [0, 1]; NaN when empty.

        Cumulative bucket walk, geometric interpolation inside the hit
        bucket (matching the log spacing), clamped to the exact observed
        [min, max] so the ends are never off by a bucket width.
        """
        if not 0.0 <= q <= 1.0:
            raise SimulationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        if rank <= 1.0:
            return self.minimum
        cumulative = 0
        for index in sorted(self.counts):
            bucket_count = self.counts[index]
            cumulative += bucket_count
            if cumulative >= rank:
                lower, upper = self.bucket_bounds(index)
                fraction = 1.0 - (cumulative - rank) / bucket_count
                value = lower * (upper / lower) ** fraction
                return min(max(value, self.minimum), self.maximum)
        return self.maximum

    def quantiles(self) -> Dict[str, float]:
        """The exporters' standard quantile set (NaN-valued when empty)."""
        return {label: self.quantile(q) for label, q in QUANTILE_LABELS}

    def as_payload(self) -> Dict[str, object]:
        """JSON-friendly snapshot; empty histograms use null, not NaN."""
        empty = self.count == 0
        return {
            "name": self.name,
            "count": self.count,
            "sum": self.total,
            "min": None if empty else self.minimum,
            "max": None if empty else self.maximum,
            "mean": None if empty else self.mean,
            "quantiles": {
                label: (None if empty else self.quantile(q))
                for label, q in QUANTILE_LABELS
            },
            "buckets": {str(index): self.counts[index]
                        for index in sorted(self.counts)},
            "layout": {
                "lowest": self.lowest,
                "buckets_per_decade": self.buckets_per_decade,
                "n_buckets": self.n_buckets,
            },
        }

    snapshot = as_payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "Histogram":
        """Rebuild a histogram from :meth:`as_payload` output."""
        layout = payload.get("layout") or {}
        buckets_per_decade = int(layout.get(
            "buckets_per_decade", DEFAULT_BUCKETS_PER_DECADE))
        n_buckets = int(layout.get(
            "n_buckets", buckets_per_decade * DEFAULT_DECADES))
        hist = cls(str(payload.get("name", "")),
                   lowest=float(layout.get("lowest", DEFAULT_LOWEST)),
                   buckets_per_decade=buckets_per_decade,
                   decades=max(1, n_buckets // buckets_per_decade))
        for index, count in (payload.get("buckets") or {}).items():
            hist.counts[int(index)] = int(count)
        hist.count = int(payload.get("count", 0))
        hist.total = float(payload.get("sum", 0.0))
        if hist.count:
            hist.minimum = float(payload["min"])
            hist.maximum = float(payload["max"])
        return hist

    def render(self) -> str:
        """One human line: count, mean and the standard quantiles."""
        if self.count == 0:
            return f"{self.name}: (empty)"
        parts = [f"n={self.count}", f"mean={self.mean:.6g}s"]
        parts += [f"{label}={self.quantile(q):.6g}s"
                  for label, q in QUANTILE_LABELS]
        parts.append(f"max={self.maximum:.6g}s")
        return f"{self.name}: " + " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name!r} n={self.count}>"


class HistogramRegistry:
    """Name → :class:`Histogram` map shared by one simulation's hosts.

    Lives on the :class:`~repro.obs.Observability` hub (``hub.hist``), so
    every emit site reaches the same registry via ``host.obs.hist``.
    Always on — a record is one dict lookup plus one ``log10``.
    """

    def __init__(self) -> None:
        self._hists: Dict[str, Histogram] = {}

    def hist(self, name: str) -> Histogram:
        """The named histogram, created on first use."""
        hist = self._hists.get(name)
        if hist is None:
            hist = Histogram(name)
            self._hists[name] = hist
        return hist

    def get(self, name: str) -> Optional[Histogram]:
        return self._hists.get(name)

    def record(self, name: str, value: float, n: int = 1) -> None:
        """Record into the named histogram (the hot-path entry point)."""
        self.hist(name).record(value, n)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._hists)

    def __contains__(self, name: str) -> bool:
        return name in self._hists

    def names(self) -> List[str]:
        return sorted(self._hists)

    def histograms(self) -> Iterator[Histogram]:
        """Histograms in name order."""
        for name in self.names():
            yield self._hists[name]

    def as_dict(self) -> Dict[str, Histogram]:
        """A shallow copy of the name → histogram map (for summaries)."""
        return dict(self._hists)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Name-sorted JSON-friendly payloads of every histogram."""
        return {name: self._hists[name].as_payload()
                for name in self.names()}

    def merge(self, other) -> "HistogramRegistry":
        """Fold another registry (or name → Histogram dict) into this one.

        Incoming histograms are copied, never aliased, so merging a
        worker's summary cannot mutate the worker's data.
        """
        source = other.as_dict() if isinstance(other, HistogramRegistry) \
            else dict(other)
        for name in sorted(source):
            hist = source[name]
            mine = self._hists.get(name)
            if mine is None:
                self._hists[name] = hist.copy()
            else:
                mine.merge(hist)
        return self

    def render(self) -> str:
        """One quantile line per histogram, name-sorted."""
        if not self._hists:
            return "(no histograms recorded)"
        return "\n".join(hist.render() for hist in self.histograms())
