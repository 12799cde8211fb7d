"""Per-connection lifecycles and the queries over them.

Backs the connection-time CDFs (Figure 6), established-connection rates
(Figures 11, 13, 14), and completion percentages (Figure 15).

:class:`ConnectionLog` is the plain data — one record per attempt — and
owns every query; each query reads the records. :class:`ConnectionTracker`
is the same log with the engine attached and the lifecycle hooks host
models call during a run; a finished run's summary keeps only the log, so
a live tracker and its summary answer every query through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.metrics.series import BinnedSeries
from repro.obs import hub_for
from repro.obs.hist import Histogram
from repro.sim.engine import Engine


class ConnectionRecord:
    """One tracked connection attempt."""

    __slots__ = ("label", "t_open", "t_established", "t_completed",
                 "t_failed", "reason", "challenged")

    def __init__(self, label: str, t_open: float) -> None:
        self.label = label
        self.t_open = t_open
        self.t_established: Optional[float] = None
        self.t_completed: Optional[float] = None
        self.t_failed: Optional[float] = None
        self.reason: Optional[str] = None
        self.challenged = False

    @property
    def connect_time(self) -> Optional[float]:
        if self.t_established is None:
            return None
        return self.t_established - self.t_open

    @property
    def outcome(self) -> str:
        if self.t_completed is not None:
            return "completed"
        if self.t_failed is not None:
            return "failed"
        if self.t_established is not None:
            return "established"
        return "pending"


@dataclass(eq=False)
class ConnectionLog:
    """Connection lifecycles per class label, as plain (picklable) data.

    Labels are free-form — the experiments use ``"client"`` and
    ``"attacker"`` so metrics can be split the way the paper splits them.
    A query for an unseen label answers as for a label with no records.
    """

    bin_width: float = 1.0
    records: List[ConnectionRecord] = field(default_factory=list)

    def _binned(self, label: str, stamp: str) -> BinnedSeries:
        """*label*'s records binned by their *stamp* time (``t_open`` or
        ``t_established``; records without one are left out)."""
        series = BinnedSeries(self.bin_width)
        for record in self.records:
            if record.label == label:
                t = getattr(record, stamp)
                if t is not None:
                    series.add(t)
        return series

    def connect_times(self, label: str) -> np.ndarray:
        """Handshake latencies (seconds) for established connections."""
        return np.asarray([
            r.connect_time for r in self.records
            if r.label == label and r.connect_time is not None
        ])

    def established_rate(self, label: str,
                         until: float) -> Tuple[np.ndarray, np.ndarray]:
        """Connections/second entering ESTABLISHED, per bin (Figure 11)."""
        return self._binned(label, "t_established").rate_series(until)

    def attempt_rate(self, label: str,
                     until: float) -> Tuple[np.ndarray, np.ndarray]:
        return self._binned(label, "t_open").rate_series(until)

    def completion_percent_series(self, label: str, until: float
                                  ) -> Tuple[np.ndarray, np.ndarray]:
        """% of attempts per bin that eventually completed (Figure 15).

        A connection is attributed to the bin of its *attempt*.
        """
        n_bins = max(1, int(np.ceil(until / self.bin_width)))
        attempts = np.zeros(n_bins)
        completions = np.zeros(n_bins)
        for record in self.records:
            if record.label != label:
                continue
            index = int(record.t_open // self.bin_width)
            if not 0 <= index < n_bins:
                continue
            attempts[index] += 1
            if record.t_completed is not None:
                completions[index] += 1
        times = np.arange(n_bins) * self.bin_width
        with np.errstate(divide="ignore", invalid="ignore"):
            percent = np.where(attempts > 0,
                               100.0 * completions / attempts, np.nan)
        return times, percent

    def counts(self, label: str) -> Dict[str, int]:
        out = {"attempts": 0, "established": 0, "completed": 0, "failed": 0,
               "challenged": 0}
        for record in self.records:
            if record.label != label:
                continue
            out["attempts"] += 1
            if record.t_established is not None:
                out["established"] += 1
            if record.t_completed is not None:
                out["completed"] += 1
            if record.t_failed is not None:
                out["failed"] += 1
            if record.challenged:
                out["challenged"] += 1
        return out

    def established_in(self, label: str, start: float, end: float) -> int:
        return sum(
            1 for r in self.records
            if r.label == label and r.t_established is not None
            and start <= r.t_established < end)

    def labels(self) -> List[str]:
        """Every label with at least one record, sorted."""
        return sorted({r.label for r in self.records})


class ConnectionTracker(ConnectionLog):
    """A :class:`ConnectionLog` filled in by host models during a run."""

    def __init__(self, engine: Engine, bin_width: float = 1.0) -> None:
        super().__init__(bin_width)
        self.engine = engine
        self._hist = hub_for(engine).hist
        # Each label's handshake-latency histogram, resolved from the
        # registry on the label's first establishment.
        self._latency: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Lifecycle hooks (called by host models)
    # ------------------------------------------------------------------
    def open(self, label: str) -> ConnectionRecord:
        record = ConnectionRecord(label, self.engine.now)
        self.records.append(record)
        return record

    def established(self, record: ConnectionRecord,
                    challenged: bool = False) -> None:
        now = record.t_established = self.engine.now
        record.challenged = challenged
        label = record.label
        latency = self._latency.get(label)
        if latency is None:
            latency = self._hist.hist(f"handshake_latency.{label}")
            self._latency[label] = latency
        latency.record(now - record.t_open)

    def completed(self, record: ConnectionRecord) -> None:
        record.t_completed = self.engine.now

    def failed(self, record: ConnectionRecord, reason: str) -> None:
        if record.t_failed is not None:
            return
        record.t_failed = self.engine.now
        record.reason = reason
