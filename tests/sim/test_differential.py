"""Differential tests: the compiled timer wheel vs the reference heap.

The compiled core adopted by :mod:`repro.sim.engine` must be
observationally identical to the binary-heap engine in
:mod:`repro.sim.reference` — same fire order, same ``(time, seq)``
tie-breaking, same run/stop/drain semantics, same shared bookkeeping.
The heap is also the engine that runs under ``REPRO_ENGINE=py``, so
every invariant here is checked on both cores. These tests drive
randomized mixed workloads through each implementation and diff the
outcomes, check that the adoption gate rejects a wrong core and
unknown knob values, and run whole scenario cells across the
{``REPRO_ENGINE``} x {``REPRO_FABRIC``} matrix.

Engine-internal counters (``compactions``, ``heap_high_water``,
``pending``) are *excluded* from the diff: the wheel's overflow tier
compacts on a different cadence than a monolithic heap and counts raw
entries differently, so those legitimately diverge while every
externally visible behaviour stays fixed.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import CEngine, _differential_gate
from repro.sim.reference import ReferenceEvent, ReferenceHeapEngine

#: Delays spanning every scheduler tier: same-instant ties, sub-slot,
#: single-slot, mid-wheel, the wheel horizon boundary (256 slots of
#: 1 ms), and deep overflow-heap territory.
DELAYS = (0.0, 0.0, 1e-05, 2.5e-4, 1e-3, 3.3e-3, 0.05, 0.254, 0.256,
          1.0, 7.0, 42.0)

#: Stats keys that must agree across implementations.
STAT_KEYS = ("events_scheduled", "events_processed", "events_cancelled",
             "pending_live", "sim_seconds")

#: Keys read from ``engine.stats()`` under ``src/``: the ones above plus
#: ``compactions`` (CLI, Prometheus export, perf, microbench),
#: ``heap_high_water`` (export, perf, microbench), ``pending`` (export,
#: perf) and the wall-clock pair (CLI, export, runner).
SRC_STATS_KEYS = STAT_KEYS + ("compactions", "heap_high_water", "pending",
                              "wall_seconds", "sim_wall_ratio")

#: Every engine the simulator can run on: ``py`` is what
#: ``REPRO_ENGINE=py`` selects, ``c`` the compiled core.
ENGINES = [pytest.param(ReferenceHeapEngine, id="py")]
if CEngine is not None:
    ENGINES.append(pytest.param(CEngine, id="c"))


def drive_workload(engine_cls, seed: int, steps: int = 60):
    """Run one seeded mixed workload; return (fire_log, stats, drained).

    The workload exercises scheduling at every tier, O(1) cancellation
    (including cancel-from-callback), rescheduling from inside
    callbacks, windowed runs with ``until``/``max_events``, ``stop()``,
    and a final drain — everything the simulator does, compressed.
    """
    rng = random.Random(seed)
    engine = engine_cls()
    fired = []
    handles = []
    tag = 0

    def make_cb(label):
        def cb():
            fired.append((label, round(engine.now, 12)))
            roll = rng.random()
            if roll < 0.10 and handles:
                handles.pop(rng.randrange(len(handles))).cancel()
            elif roll < 0.18:
                nested = rng.choice(DELAYS)
                handles.append(engine.schedule(nested,
                                               make_cb((label, "nested"))))
            elif roll < 0.20:
                engine.stop()
        return cb

    for _ in range(steps):
        for _ in range(rng.randint(1, 6)):
            tag += 1
            delay = rng.choice(DELAYS) + rng.random() * rng.choice(
                (0.0, 1e-4, 0.01, 0.4))
            handles.append(engine.schedule(delay, make_cb(tag)))
        if rng.random() < 0.3 and handles:
            handles.pop(rng.randrange(len(handles))).cancel()
        if rng.random() < 0.2:
            tag += 1
            engine.schedule_at(engine.now + rng.choice(DELAYS),
                               make_cb(("at", tag)))
        mode = rng.random()
        if mode < 0.45:
            engine.run(until=engine.now + rng.choice((5e-4, 0.01, 0.3, 2.0)))
        elif mode < 0.8:
            engine.run(until=engine.now + rng.choice((0.02, 1.0, 10.0)),
                       max_events=rng.randint(1, 40))
        # else: keep scheduling without running — deepens the backlog.
    engine.run()
    stats = engine.stats()
    drained = engine.drain()
    return fired, {key: stats[key] for key in STAT_KEYS}, drained


class TestAgainstReferenceHeap:
    """Every engine vs the reference heap (for ``py``, a rerun of it)."""

    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("seed", [1, 7, 99, 20260808])
    def test_mixed_workload_identical(self, engine_cls, seed):
        expected = drive_workload(ReferenceHeapEngine, seed)
        actual = drive_workload(engine_cls, seed)
        assert actual[0] == expected[0], "fire order diverged"
        assert actual[1] == expected[1], "stats diverged"
        assert actual[2] == expected[2], "drain count diverged"

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_tie_break_is_insertion_order_across_tiers(self, engine_cls):
        """Same-time events fire in schedule order even when one landed
        in the wheel and another in the overflow heap first."""
        for cls in (engine_cls, ReferenceHeapEngine):
            engine = cls()
            order = []
            engine.schedule(7.0, order.append, "overflow-first")
            engine.run(until=6.9)
            engine.schedule_at(7.0, order.append, "wheel-second")
            engine.schedule_at(7.0, order.append, "wheel-third")
            engine.run()
            assert order == ["overflow-first", "wheel-second", "wheel-third"]

    @given(delays=st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        min_size=1, max_size=40),
        cancel_mask=st.lists(st.booleans(), min_size=40, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_property_fire_order_matches_reference(self, delays,
                                                   cancel_mask):
        def run_with(engine_cls):
            engine = engine_cls()
            fired = []
            handles = [engine.schedule(delay, fired.append, i)
                       for i, delay in enumerate(delays)]
            for handle, dead in zip(handles, cancel_mask):
                if dead:
                    handle.cancel()
            engine.run()
            return fired, engine.events_processed, engine.events_cancelled

        expected = run_with(ReferenceHeapEngine)
        if CEngine is not None:
            assert run_with(CEngine) == expected


@pytest.mark.skipif(CEngine is None,
                    reason="compiled engine unavailable on this host")
class TestCompiledMatchesPython:
    """The C core vs the Python engine (the reference heap), head to
    head."""

    @pytest.mark.parametrize("seed", [3, 12345, 777])
    def test_mixed_workload_identical(self, seed):
        assert drive_workload(CEngine, seed) == drive_workload(
            ReferenceHeapEngine, seed)

    def test_stats_keys_read_by_src_exist_on_both_cores(self):
        for engine_cls in (CEngine, ReferenceHeapEngine):
            missing = set(SRC_STATS_KEYS) - set(engine_cls().stats())
            assert not missing, f"{engine_cls.__name__} lacks {missing}"

    def test_compiled_engine_accepts_extra_attributes(self):
        """The C type carries a ``__dict__`` so hosts can hang
        observability objects off the engine exactly like the Python one
        (e.g. ``engine.obs``)."""
        engine = CEngine()
        engine.obs = {"marker": 1}
        assert engine.obs == {"marker": 1}


class TestWheelSpecificBehaviour:
    """Invariants the wheel introduced, required of every core."""

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_mass_cancel_is_o1_and_books_balance(self, engine_cls):
        engine = engine_cls()
        handles = [engine.schedule(0.001 * (i % 200), lambda: None)
                   for i in range(5000)]
        for handle in handles:
            handle.cancel()
        stats = engine.stats()
        assert stats["events_cancelled"] == 5000
        assert stats["pending_live"] == 0
        engine.run()
        assert engine.events_processed == 0

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_pending_live_tracks_mixed_tiers(self, engine_cls):
        engine = engine_cls()
        near = engine.schedule(0.001, lambda: None)   # wheel tier
        far = engine.schedule(60.0, lambda: None)     # overflow tier
        assert engine.stats()["pending_live"] == 2
        near.cancel()
        assert engine.stats()["pending_live"] == 1
        far.cancel()
        assert engine.stats()["pending_live"] == 0

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_gc_state_restored_after_run(self, engine_cls):
        """``run`` holds the generational GC while dispatching but must
        restore the caller's setting on every exit path."""
        engine = engine_cls()
        engine.schedule(0.1, lambda: None)
        assert gc.isenabled()
        engine.run()
        assert gc.isenabled()

        gc.disable()
        try:
            engine.schedule(0.2, lambda: None)
            engine.run()
            assert not gc.isenabled()  # caller's choice is preserved
        finally:
            gc.enable()

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_gc_restored_when_callback_raises(self, engine_cls):
        engine = engine_cls()

        def boom():
            raise RuntimeError("callback failure")

        engine.schedule(0.1, boom)
        assert gc.isenabled()
        with pytest.raises(RuntimeError):
            engine.run()
        assert gc.isenabled()


class _ReversedTies(ReferenceHeapEngine):
    """A wrong engine: same-time events fire newest first."""

    def schedule_at(self, time, callback, *args):
        self._seq += 1
        event = ReferenceEvent(time, self._seq, callback, args)
        event.engine = self
        heapq.heappush(self._heap, (time, -self._seq, event))
        return event


class TestAdoption:
    """Import-time adoption must be able to say no: to a wrong core and
    to an unknown knob value."""

    @pytest.mark.parametrize("engine_cls,adopted", [
        pytest.param(ReferenceHeapEngine, True, id="reference"),
        pytest.param(_ReversedTies, False, id="reversed-ties"),
    ] + ([pytest.param(CEngine, True, id="c")] if CEngine is not None
         else []))
    def test_gate_verdict(self, engine_cls, adopted):
        assert _differential_gate(engine_cls) is adopted

    @pytest.mark.parametrize("knob,value,allowed", [
        ("REPRO_ENGINE", "cc", "auto, py"),
        ("REPRO_FABRIC", "pakcet", "auto, packet"),
    ])
    def test_unknown_knob_value_fails_at_import(self, knob, value, allowed):
        """A mistyped mode must not silently run the default."""
        env = dict(os.environ, **{knob: value})
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.net.fabric"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode != 0
        assert (f"SimulationError: {knob}={value!r} is not one of "
                f"{allowed}") in proc.stderr


_SCENARIO_PROBE = r"""
import hashlib, json, sys
from dataclasses import replace
from repro.experiments.exp2_floods import FloodExperiment
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.summary import run_scenario_summary
from repro.faults.chaos import overload_matrix
from repro.runner.export import cells_to_jsonl
from repro.tcp.fairness import FairnessConfig

label = sys.argv[1]
base = ScenarioConfig(time_scale=0.02)
if label.startswith("overload-"):
    summary = run_scenario_summary(overload_matrix(base)[label].config)
elif label == "challenges-m17-fair":
    summary = FloodExperiment(
        defense="challenges-m17", attack_style="syn",
        base=replace(base, fairness=FairnessConfig())).summary()
elif label == "cookies-connect":
    summary = FloodExperiment(defense="cookies", attack_style="connect",
                              base=base).summary()
else:
    summary = FloodExperiment(defense=label, attack_style="syn",
                              base=base).summary()
engine_keys = ("events_scheduled", "events_processed", "events_cancelled",
               "sim_seconds")
figure_series = {"listen": summary.queues.listen_series(),
                 "accept": summary.queues.accept_series()}
for host in summary.cpu.series:
    figure_series["cpu." + host] = summary.cpu.utilization(host)
jsonl = cells_to_jsonl([summary])
print(json.dumps({
    "counters": summary.counters,
    "engine": {k: summary.engine_stats[k] for k in engine_keys},
    "connections": {lbl: summary.connections.counts(lbl)
                    for lbl in summary.connections.labels()},
    "figure_series": {name: [times.tolist(), values.tolist()]
                      for name, (times, values) in figure_series.items()},
    "jsonl_sha256": hashlib.sha256(jsonl.encode()).hexdigest(),
}, sort_keys=True))
"""


_SUITE_PROBE = r"""
import hashlib, sys
from repro.experiments.exp2_floods import run_syn_flood_suite_report
from repro.experiments.scenario import ScenarioConfig
from repro.runner import SweepRunner
from repro.runner.export import cells_to_jsonl

jobs = int(sys.argv[1])
suite, stats = run_syn_flood_suite_report(
    ScenarioConfig(time_scale=0.02), SweepRunner(jobs=jobs))
jsonl = cells_to_jsonl(list(suite.values()))
print(stats.jobs, hashlib.sha256(jsonl.encode()).hexdigest())
"""

#: The fig7 cells plus one overload-ladder cell (admission control,
#: budgeted syncache, cookie fallback, watchdog), one fairness-priced
#: puzzle cell (per-source params, so the challenge's size changes from
#: SYN to SYN) and the fig8 cookies cell, whose bots complete their
#: handshakes (the connect path, cookie decode, accept queue and app
#: server run only there).
_FIG7_LABELS = ("nodefense", "cookies", "challenges-m8", "challenges-m17",
                "overload-oldest", "challenges-m17-fair", "cookies-connect")


def _run_probe(script, arg, env_extra):
    env = dict(os.environ, **env_extra)
    proc = subprocess.run(
        [sys.executable, "-c", script, arg],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("label", _FIG7_LABELS)
def test_fig7_cells_identical_across_fabric_and_engine(label):
    """The batched flood fast path must be invisible in the output:
    every fig7 cell's (and the ladder and connect-flood cells')
    counters, engine accounting, connection outcomes, Figure 9/10
    series and export JSONL are byte-identical between the per-packet
    pipeline (``REPRO_FABRIC=packet``) and the batched one, on either
    engine."""
    engines = ["py"] if CEngine is None else ["py", "auto"]
    outputs = {}
    for engine in engines:
        for fabric in ("packet", "auto"):
            out = _run_probe(_SCENARIO_PROBE, label,
                             {"REPRO_ENGINE": engine,
                              "REPRO_FABRIC": fabric})
            outputs[(engine, fabric)] = json.loads(out)
    reference = outputs[(engines[0], "packet")]
    for key, output in outputs.items():
        assert output == reference, f"{key} diverged from reference"


def test_fig7_suite_identical_serial_vs_parallel():
    """The full fig7 suite's export JSONL is byte-identical whether the
    sweep runs serially in-process or across worker processes, with the
    batched fast path active in both."""
    serial = _run_probe(_SUITE_PROBE, "1", {"REPRO_FABRIC": "auto"})
    parallel = _run_probe(_SUITE_PROBE, "2", {"REPRO_FABRIC": "auto"})
    assert serial.split()[0] == "1"
    assert parallel.split()[0] == "2"
    assert serial.split()[1] == parallel.split()[1]
