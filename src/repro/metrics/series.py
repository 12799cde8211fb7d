"""Time-series primitive: the binned accumulator."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import SimulationError


class BinnedSeries:
    """Accumulates events into fixed-width time bins.

    Used for throughput (bytes per bin) and rates (events per bin).
    """

    def __init__(self, bin_width: float, t0: float = 0.0) -> None:
        if bin_width <= 0:
            raise SimulationError(
                f"bin_width must be positive, got {bin_width!r}")
        self.bin_width = bin_width
        self.t0 = t0
        self._bins: Dict[int, float] = {}
        self.total = 0.0

    def add(self, t: float, value: float = 1.0) -> None:
        index = int((t - self.t0) // self.bin_width)
        self._bins[index] = self._bins.get(index, 0.0) + value
        self.total += value

    def series(self, until: float) -> Tuple[np.ndarray, np.ndarray]:
        """(bin start times, per-bin sums) covering ``[t0, until)``."""
        n_bins = max(1, int(np.ceil((until - self.t0) / self.bin_width)))
        times = self.t0 + np.arange(n_bins) * self.bin_width
        values = np.zeros(n_bins)
        if self._bins:
            # Vectorized fill: one fancy-indexed assignment instead of a
            # Python loop over every bin (sweep post-processing hot path).
            indices = np.fromiter(self._bins.keys(), dtype=np.int64,
                                  count=len(self._bins))
            sums = np.fromiter(self._bins.values(), dtype=np.float64,
                               count=len(self._bins))
            mask = (indices >= 0) & (indices < n_bins)
            values[indices[mask]] = sums[mask]
        return times, values

    def rate_series(self, until: float) -> Tuple[np.ndarray, np.ndarray]:
        """Per-bin sums divided by the bin width (events or bytes /second)."""
        times, values = self.series(until)
        return times, values / self.bin_width

    def window_sum(self, start: float, end: float) -> float:
        """Total accumulated in ``[start, end)`` (whole bins)."""
        lo = int((start - self.t0) // self.bin_width)
        hi = int(np.ceil((end - self.t0) / self.bin_width))
        return sum(v for i, v in self._bins.items() if lo <= i < hi)

