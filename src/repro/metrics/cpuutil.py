"""CPU-utilisation sampling (Figure 9).

:class:`CPUUtilization` holds per-host utilisation samples (%) and the
queries over them, as plain data. :class:`CPUUtilizationSampler` fills
one in during a run: it periodically reads each host CPU's exact
cumulative busy time (see :class:`repro.hosts.host.CPUResource`) and
differentiates it into per-bin utilisation percentages. A run's summary
keeps only the samples, so both answer through the same queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.metrics.series import GaugeSeries
from repro.sim.engine import Engine
from repro.sim.process import PeriodicProcess


@dataclass(eq=False)
class CPUUtilization:
    """Busy-fraction (%) samples per host name."""

    series: Dict[str, GaugeSeries] = field(default_factory=dict)

    def utilization(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        return self.series[name].arrays()

    def mean_in(self, name: str, start: float, end: float) -> float:
        return self.series[name].mean_in(start, end)

    def max_in(self, name: str, start: float, end: float) -> float:
        return self.series[name].max_in(start, end)


class CPUUtilizationSampler(CPUUtilization):
    """Samples busy-fraction (%) of a set of hosts every *interval*."""

    def __init__(self, engine: Engine, hosts: Sequence,
                 interval: float = 1.0) -> None:
        self.engine = engine
        self.hosts = list(hosts)
        self.interval = interval
        super().__init__({host.name: GaugeSeries() for host in self.hosts})
        self._last_busy: Dict[str, float] = {
            host.name: 0.0 for host in self.hosts
        }
        self._process = PeriodicProcess(engine, self._sample,
                                        interval=interval)

    def start(self, delay: float = 0.0) -> None:
        self._process.start(delay if delay else self.interval)

    def stop(self) -> None:
        self._process.stop()

    def _sample(self) -> None:
        now = self.engine.now
        for host in self.hosts:
            busy = host.cpu.busy_seconds(now)
            delta = busy - self._last_busy[host.name]
            self._last_busy[host.name] = busy
            utilization = 100.0 * delta / self.interval
            self.series[host.name].sample(now, min(100.0, utilization))
