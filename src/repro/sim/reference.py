"""The binary-heap engine: the simulator's oracle and its Python engine.

One heap of ``(time, seq, event)`` entries for everything, with lazy
deletion and periodic compaction — the engine that shipped before the
compiled timer wheel. It has two jobs:

* **Oracle.** :mod:`repro.sim.engine` adopts the compiled core only if
  it reproduces this engine's fire order and shared bookkeeping on a
  mixed workload, and the differential suite in ``tests/sim/`` drives
  randomized schedule/cancel/run workloads through both and asserts
  identical outcomes. It is a different algorithm from the wheel, so
  the two are unlikely to share a bug.
* **Fallback.** It is the ``Engine`` whenever the compiled core is not
  adopted: no compiler, a failed build or gate, or ``REPRO_ENGINE=py``.

The scheduling logic is intentionally kept verbatim (same tie-breaking,
same clock-jump semantics, same stop/drain behaviour) rather than
tuned: the differential tests are only as strong as the fidelity of the
oracle. ``run`` shares the compiled core's run-level contract — the
generational GC is held while dispatching, and ``perf_counter`` is read
through :mod:`repro.sim.engine`.
"""

from __future__ import annotations

import gc
import heapq
import sys
from typing import Any, Callable, Dict, List, Optional

from repro.errors import SimulationError

#: Never compact a heap smaller than this (the compiled core's overflow
#: tier uses the same constant).
COMPACT_MIN_HEAP = 64


class ReferenceEvent:
    """Handle for a scheduled callback (lazy-deletion flavour)."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "engine")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., None], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.engine: Optional["ReferenceHeapEngine"] = None

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        engine = self.engine
        if engine is not None:
            engine._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ReferenceEvent t={self.time:.6f} seq={self.seq} {state}>"


class ReferenceHeapEngine:
    """The heap discrete-event engine: one binary heap for everything.

    Events are ``(time, seq, event)`` tuples on a heap; cancellation is a
    flag (lazy deletion) and the heap is compacted — rebuilt without dead
    entries — whenever cancelled entries exceed half of it.
    """

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._now = 0.0
        self._seq = 0
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._events_cancelled = 0
        self._cancelled_pending = 0
        self._compactions = 0
        self._heap_high_water = 0
        self._wall_seconds = 0.0
        self._clock_offsets: Dict[str, float] = {}

    @property
    def now(self) -> float:
        return self._now

    def set_clock_offset(self, key: str, offset: float) -> None:
        if offset:
            self._clock_offsets[key] = offset
        else:
            self._clock_offsets.pop(key, None)

    def clock_offset(self, key: str) -> float:
        return self._clock_offsets.get(key, 0.0)

    def now_for(self, key: str) -> float:
        offsets = self._clock_offsets
        if not offsets:
            return self._now
        return self._now + offsets.get(key, 0.0)

    @property
    def events_scheduled(self) -> int:
        return self._seq

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def events_cancelled(self) -> int:
        return self._events_cancelled

    @property
    def compactions(self) -> int:
        return self._compactions

    @property
    def pending(self) -> int:
        """Number of heap entries, including lazily-deleted ones."""
        return len(self._heap)

    @property
    def pending_live(self) -> int:
        """Heap entries that will actually fire."""
        return len(self._heap) - self._cancelled_pending

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> ReferenceEvent:
        if delay < 0:
            raise SimulationError(
                f"cannot schedule an event {delay!r}s in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> ReferenceEvent:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r} before now={self._now!r}")
        self._seq += 1
        event = ReferenceEvent(time, self._seq, callback, args)
        event.engine = self
        heapq.heappush(self._heap, (time, self._seq, event))
        if len(self._heap) > self._heap_high_water:
            self._heap_high_water = len(self._heap)
        return event

    def _note_cancelled(self) -> None:
        self._events_cancelled += 1
        self._cancelled_pending += 1
        heap = self._heap
        if (len(heap) >= COMPACT_MIN_HEAP
                and self._cancelled_pending * 2 > len(heap)):
            self._compact()

    def _compact(self) -> None:
        live = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(live)
        self._heap[:] = live
        self._cancelled_pending = 0
        self._compactions += 1

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        if self._running:
            raise SimulationError("engine is already running (reentrant run)")
        self._running = True
        self._stopped = False
        processed_this_run = 0
        # Looked up per run, as the compiled core does, so a perf_counter
        # monkeypatched on repro.sim.engine sees every call.
        perf_counter = sys.modules["repro.sim.engine"].perf_counter
        run_started = perf_counter()
        heap = self._heap
        heappop, heappush = heapq.heappop, heapq.heappush
        # Hold the cyclic GC for the dispatch loop: event/packet churn is
        # refcount-managed (no cycles), so generational scans are pure
        # overhead at flood rates. Restored in the `finally`; left alone
        # if the caller already disabled it.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap:
                if self._stopped:
                    break
                entry = heappop(heap)
                if until is not None and entry[0] > until:
                    heappush(heap, entry)
                    break
                event = entry[2]
                event.engine = None
                if event.cancelled:
                    self._cancelled_pending -= 1
                    continue
                self._now = event.time
                event.callback(*event.args)
                self._events_processed += 1
                processed_this_run += 1
                if max_events is not None and processed_this_run >= max_events:
                    break
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()
            self._wall_seconds += perf_counter() - run_started
        if until is not None and not self._stopped and self._now < until:
            self._now = until

    def stop(self) -> None:
        self._stopped = True

    def drain(self) -> int:
        count = 0
        for entry in self._heap:
            event = entry[2]
            event.engine = None
            if not event.cancelled:
                count += 1
        self._heap.clear()
        self._cancelled_pending = 0
        return count

    def stats(self) -> Dict[str, float]:
        wall = self._wall_seconds
        return {
            "events_scheduled": self._seq,
            "events_processed": self._events_processed,
            "events_cancelled": self._events_cancelled,
            "cancelled_pending": self._cancelled_pending,
            "compactions": self._compactions,
            "heap_high_water": self._heap_high_water,
            "pending": len(self._heap),
            "pending_live": len(self._heap) - self._cancelled_pending,
            "sim_seconds": self._now,
            "wall_seconds": wall,
            "sim_wall_ratio": (self._now / wall) if wall > 0 else 0.0,
        }
