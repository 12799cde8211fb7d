"""Listen/accept queue occupancy sampling (Figure 10).

:class:`QueueDepths` holds the two queue-depth series and their queries
as plain data; :class:`QueueSampler` fills one in by sampling a
listener's queues during a run. A run's summary keeps only the series,
so both answer through the same queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.metrics.series import GaugeSeries
from repro.sim.engine import Engine
from repro.sim.process import PeriodicProcess

if TYPE_CHECKING:
    from repro.tcp.listener import ListenSocket


@dataclass(eq=False)
class QueueDepths:
    """Sampled listen-queue and accept-queue depths."""

    listen_depth: GaugeSeries = field(default_factory=GaugeSeries)
    accept_depth: GaugeSeries = field(default_factory=GaugeSeries)

    def listen_series(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.listen_depth.arrays()

    def accept_series(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.accept_depth.arrays()


class QueueSampler(QueueDepths):
    """Samples the two queue depths of a listener every *interval*."""

    def __init__(self, engine: Engine, listener: "ListenSocket",
                 interval: float = 0.5) -> None:
        super().__init__()
        self.engine = engine
        self.listener = listener
        self._process = PeriodicProcess(engine, self._sample,
                                        interval=interval)

    def start(self, delay: float = 0.0) -> None:
        self._process.start(delay)

    def stop(self) -> None:
        self._process.stop()

    def _sample(self) -> None:
        now = self.engine.now
        self.listen_depth.sample(now, len(self.listener.listen_queue))
        self.accept_depth.sample(now, len(self.listener.accept_queue))
