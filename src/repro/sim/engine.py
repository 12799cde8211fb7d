"""Engine selection: the compiled timer wheel, gated against the heap.

The simulator has one scheduler API and two implementations of it:

* the compiled timer-wheel core (``_cengine.c``, built on demand by
  :mod:`repro.sim.accel`) — the fast path;
* :class:`~repro.sim.reference.ReferenceHeapEngine`, one binary heap with
  lazy deletion — the oracle the differential tests compare against, and
  the engine that runs whenever the compiled core is not adopted.

The compiled core is adopted only after :func:`_differential_gate` — a
deterministic mixed workload that must fire in the identical order, with
identical shared bookkeeping, on both — passes. The heap is an
independent algorithm, so agreeing with it is a stronger check than
agreeing with a Python port of the same wheel.

``Engine`` and ``Event`` are the adopted classes; ``CEngine`` is the
compiled class, or ``None`` when the heap runs. Both cores read
``perf_counter`` from this module on every ``run``, so monkeypatching it
here observes every timing call either core makes (the two-calls-per-run
gate in ``tests/obs/test_profile.py``).

``REPRO_ENGINE`` selects:

* ``auto`` (default, also when unset or empty) — the compiled core when it
  builds and passes the gate, the heap otherwise;
* ``py`` — the heap, without building anything.

Any other value raises :class:`~repro.errors.SimulationError` at import.
"""

from __future__ import annotations

import os
import random
from time import perf_counter  # noqa: F401  (read here by both cores)
from typing import List

from repro.errors import SimulationError
from repro.sim.reference import ReferenceEvent, ReferenceHeapEngine

#: ``stats()`` keys every core computes identically. The others
#: (``compactions``, ``heap_high_water``, ``pending``, ...) describe a
#: scheduler's internal layout and differ between a heap and a wheel by
#: design.
SHARED_STATS_KEYS = ("events_scheduled", "events_processed",
                     "events_cancelled", "pending_live", "sim_seconds")

_ENGINE_MODES = ("auto", "py")


def _differential_gate(cengine_cls) -> bool:
    """Adoption gate for a compiled core: a deterministic mixed workload
    (schedule / cancel / windowed runs / overflow-depth timers) must
    produce the identical fire order and shared bookkeeping as the
    reference heap before the compiled class may replace it."""

    def drive(engine_cls):
        rng = random.Random(20260808)
        engine = engine_cls()
        order: List[tuple] = []
        handles: List = []
        for step in range(120):
            for _ in range(8):
                delay = rng.choice((0.0, 1e-4, 3e-3, 0.05, 0.3, 7.0))
                handles.append(engine.schedule(
                    delay, lambda s=step: order.append(("f", s, engine.now))))
            rng.shuffle(handles)
            while len(handles) > 20:
                handles.pop().cancel()
            engine.run(until=engine.now + rng.choice((1e-3, 0.02, 0.5)),
                       max_events=rng.randint(1, 50))
        engine.run()
        stats = engine.stats()
        return order, [stats[key] for key in SHARED_STATS_KEYS]

    try:
        return drive(cengine_cls) == drive(ReferenceHeapEngine)
    except Exception:
        return False


Engine = ReferenceHeapEngine
Event = ReferenceEvent
CEngine = None
_MODE = (os.environ.get("REPRO_ENGINE") or "auto").strip().lower()
if _MODE not in _ENGINE_MODES:
    raise SimulationError(
        f"REPRO_ENGINE={os.environ['REPRO_ENGINE']!r} is not one of "
        f"{', '.join(_ENGINE_MODES)}")
if _MODE == "auto":
    try:
        from repro.sim.accel import load_cengine

        _cmod = load_cengine()
    except Exception:  # no compiler, or the build failed: the heap runs
        _cmod = None
    if _cmod is not None and _differential_gate(_cmod.Engine):
        CEngine = Engine = _cmod.Engine
        Event = _cmod.Event
