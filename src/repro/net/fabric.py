"""Fabric fold: a whole path's ``Link.offer`` chain in one call.

``Network.send`` folds every packet through the directed links of its
(static) path. The per-link arithmetic is tiny — a droptail check, a
serialization update, an optional loss draw — but at flood rates the
Python frames around it dominate. A :class:`FabricPath` caches a path's
link sequence once and exposes ``fold(now, size_bytes)``, which performs
the entire chain:

* :func:`fold_links` is the fold in Python — the per-link
  ``link.offer`` loop — and :class:`PyFabricPath` binds it to a cached
  path. It is the reference the compiled fold is gated against, and the
  fold that runs whenever the compiled one is not adopted.
* The compiled core (``repro.sim._cengine.FabricPath``) performs the same
  arithmetic in C. :class:`~repro.net.link.Link` keeps its fields in
  ``__slots__``; the compiled path resolves each slot's offset once, when
  it is built, and then reads and writes the links' slots directly, so
  the Python ``Link`` objects remain the single source of truth (fault
  injectors, ``reset_counters`` and direct ``offer`` calls all keep
  working). Loss draws call the link's own ``rng.random()``, so the
  Mersenne stream is consumed CPython-exactly. C doubles evaluated in the
  same order as CPython floats are bit-identical, so drop decisions and
  arrival times match to the last ulp. The compiled send of
  :mod:`repro.net.floodpath` folds every packet between registered hosts
  through it without a Python call.

The compiled fold ships in the engine's extension module. It is adopted
only when :mod:`repro.sim.engine` adopted that build's engine
(``CEngine``) and :func:`_fabric_gate` — a randomized differential
self-test against the Python fold — passes.

A C fold returns ``NotImplemented`` instead of touching any state when it
cannot reproduce Python semantics exactly (a link-level fault hook is
installed, an ``offer`` is overridden in a link's instance ``__dict__``,
the size would raise, or a link's type keeps its fields outside slots):
callers then re-fold through :func:`fold_links`.

``REPRO_FABRIC`` selects the flood pipeline:

* ``auto`` (default, also when unset or empty) — the compiled fold, and
  with it the compiled send and flood paths of :mod:`repro.net.floodpath`,
  when this build's engine and fold pass their gates; the per-packet
  pipeline with Python folds otherwise;
* ``packet`` — the per-packet pipeline with Python folds, always. It is
  the oracle the differential suite holds the compiled paths to.

Any other value raises :class:`~repro.errors.SimulationError` at import.
"""

from __future__ import annotations

import os
import sys
from functools import partial
from typing import Optional

from repro.errors import SimulationError


def fold_links(links, now: float, size_bytes: int) -> Optional[float]:
    """The Python fold: offer to each link in order.

    Returns the far-end arrival time, or ``None`` once any link drops
    (droptail, loss or fault) — the same contract as ``FabricPath.fold``.
    """
    arrival = now
    for link in links:
        offered = link.offer(arrival, size_bytes)
        if offered is None:
            return None
        arrival = offered
    return arrival


class PyFabricPath:
    """A cached path folded in Python by :func:`fold_links`."""

    __slots__ = ("links", "fold")

    def __init__(self, links) -> None:
        self.links = tuple(links)
        #: ``fold(now, size_bytes)``: :func:`fold_links` over this path,
        #: bound without a wrapper frame.
        self.fold = partial(fold_links, self.links)


def _fabric_gate(cfabric_cls) -> bool:
    """Adoption gate for a compiled fabric fold: randomized offer
    streams over a mixed path (queueing, droptail, loss draws) must
    leave bit-identical results and link state versus the Python
    reference, and a faulted link must push the whole fold back to the
    per-link path without touching any state."""
    import random as _random

    from repro.net.link import Link

    def build(seed):
        return [
            Link(rate_bps=100e6, delay=5e-4, buffer_bytes=64 * 1024),
            Link(rate_bps=1e9, delay=2e-4, loss_rate=0.05,
                 rng=_random.Random(seed * 7 + 1)),
            Link(rate_bps=10e6, delay=1e-3, buffer_bytes=16 * 1024),
        ]

    def state(links):
        return [(lk._next_free, lk.packets_sent, lk.packets_dropped,
                 lk.packets_lost, lk.bytes_sent, lk.packets_faulted)
                for lk in links]

    def drive(path_cls, seed):
        links = build(seed)
        path = path_cls(links)
        rng = _random.Random(seed + 99)
        out = []
        now = 0.0
        for _ in range(4000):
            result = path.fold(now, rng.randint(60, 1514))
            if result is NotImplemented:
                return None
            out.append(result)
            now += rng.random() * 2e-4
        return out, state(links)

    try:
        for seed in (1, 20260808):
            if drive(cfabric_cls, seed) != drive(PyFabricPath, seed):
                return False
        # Fault pre-scan: any installed link fault must yield
        # NotImplemented before any state mutation, so the caller's
        # re-fold through the per-link path never double-counts.
        links = build(3)
        links[1].fault = object()
        before = state(links)
        path = cfabric_cls(links)
        if path.fold(0.0, 100) is not NotImplemented:
            return False
        if path.fold(0.0, 0) is not NotImplemented:  # raise-in-Python case
            return False
        if state(links) != before:
            return False
        # Instance-level ``offer`` monkeypatches (fault-injection tests)
        # must likewise escape to the interpreted path untouched.
        links = build(3)
        links[0].offer = lambda now, size: None
        before = state(links)
        path = cfabric_cls(links)
        if path.fold(0.0, 100) is not NotImplemented:
            return False
        return state(links) == before
    except Exception:
        return False


_FABRIC_MODES = ("auto", "packet")
_MODE = (os.environ.get("REPRO_FABRIC") or "auto").strip().lower()
if _MODE not in _FABRIC_MODES:
    raise SimulationError(
        f"REPRO_FABRIC={os.environ['REPRO_FABRIC']!r} is not one of "
        f"{', '.join(_FABRIC_MODES)}")
#: Whether the compiled fold (and with it the compiled packet paths of
#: repro.net.floodpath) may be adopted.
BATCHED = _MODE == "auto"
CFabricPath = None
FabricPath = PyFabricPath
if BATCHED:
    from repro.sim.engine import CEngine

    # Trust the build's fold only if the same build's engine passed its
    # own gate; a rejected build stays unused.
    if CEngine is not None:
        _cfold = sys.modules[CEngine.__module__].FabricPath
        if _fabric_gate(_cfold):
            CFabricPath = FabricPath = _cfold
