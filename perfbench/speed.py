"""Host-speed probe: scales each cell's wall time to a reference host
speed, so ``sim_wall_ratio`` reads the same when the host slows down.

The benchmark gets a few cores of a shared host whose speed drifts by a
third or more for tens of seconds at a time (neighbouring load on the
same cores). A drift that long covers a whole run, so no median over the
run's passes can remove it. What can is timing a fixed reference loop
just before and just after every cell: the cell's wall is multiplied by
``REFERENCE_S`` over the loop's mean time around it.

The loop is interpreter-bound work of the simulator's own kind: object
allocation, attribute access, method calls, dict and heap operations. On
a 2-vCPU shared VM its time tracks a cell's wall with a correlation of
about 0.8. It is the benchmark's code, not the program's, so a change
to the program moves the scaled walls and a change of host speed mostly
does not.

The probe is a :class:`~repro.runner.SweepRunner` monitor: the runner
calls it between cells, outside the span it times for a cell's wall.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Dict, List

#: Reference-loop rounds per probe, each side of a cell (about 12 ms on
#: a quiet host).
ROUNDS = 2
#: Probe time that defines the reference speed: the median probe time on
#: a quiet 2-vCPU Xeon VM at 2.0 GHz (Python 3.11). A scaled wall is the
#: wall the cell would take on such a host.
REFERENCE_S = 0.0125


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def bump(self, delta: int) -> int:
        self.value += delta
        return self.value


def _round() -> int:
    heap: List[tuple] = []
    table: Dict[int, _Item] = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(5000):
        item = _Item(i & 1023, i)
        table[item.key] = item
        push(heap, ((i * 7919) % 10007, i, item))
        if len(heap) > 256:
            _, _, oldest = pop(heap)
            oldest.bump(1)
            table.get(oldest.key)
    return len(table)


def probe_s() -> float:
    """Wall time of ``ROUNDS`` reference-loop rounds.

    The collector is off meanwhile: a full collection's cost grows with
    the program's heap, which would tie the probe to the program.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(ROUNDS):
            _round()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Sweep monitor that times the reference loop around every cell.

    After a pass, :attr:`scale` maps each cell index to the factor that
    turns its wall into a reference-speed wall, and :attr:`spent_s` is
    the time the probes themselves took.
    """

    def __init__(self) -> None:
        self.scale: Dict[int, float] = {}
        self.spent_s = 0.0
        self._before = 0.0

    def _probe(self) -> float:
        elapsed = probe_s()
        self.spent_s += elapsed
        return elapsed

    # SweepRunner monitor interface (serial runs call only these).
    def begin(self, labels, jobs) -> None:
        self.scale.clear()
        self.spent_s = 0.0

    def cell_running(self, index: int) -> None:
        self._before = self._probe()

    def cell_done(self, index: int, value, wall_seconds: float = 0.0,
                  cached: bool = False) -> None:
        around = (self._before + self._probe()) / 2.0
        self.scale[index] = REFERENCE_S / around

    def finish(self, stats) -> None:
        pass
