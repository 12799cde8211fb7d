"""Discrete-event simulation engine.

A deliberately small, fast core: an event queue keyed on
``(time, sequence)`` — the compiled timer wheel when it builds and passes
its differential gate, the reference binary heap otherwise (see
:mod:`repro.sim.engine`) — a simulation clock, seeded per-stream random
number generators, and a handful of process helpers (periodic and Poisson
arrival processes) that the host models build on.

The engine substitutes for the paper's DETER testbed: experiments that ran
for 600 wall-clock seconds on physical machines run here as simulated
seconds (see ``DESIGN.md``, *Scale-down convention*).
"""

from repro.sim.engine import Engine, Event
from repro.sim.rng import RngStreams
from repro.sim.process import PeriodicProcess, PoissonProcess

__all__ = [
    "Engine",
    "Event",
    "RngStreams",
    "PeriodicProcess",
    "PoissonProcess",
]
