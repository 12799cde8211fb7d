"""The layer profiler: layer names, booking rules, what it reports on a
real flood cell, cleanup, and the engine's two-timing-calls contract."""

import functools
import gc
import importlib
import sys
import time
import tracemalloc

import pytest

from repro.experiments.exp2_floods import FloodExperiment
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.experiments.summary import summarize
from repro.net.fabric import CFabricPath
from repro.obs.profile import (
    CORE_MODULE,
    LAYERS,
    OTHER,
    Profiler,
    _frame_key,
    layer_of,
)
from repro.sim.engine import Engine

VALID_LAYERS = set(LAYERS) | {OTHER}


def _flood_cell(label: str, style: str) -> ScenarioConfig:
    return FloodExperiment(
        defense=label, attack_style=style,
        base=ScenarioConfig(time_scale=0.01, seed=1)).config()


def _profiled(config: ScenarioConfig) -> Profiler:
    started = time.perf_counter()
    with Profiler() as profiler:
        Scenario(config).run()
    profiler.outer_wall = time.perf_counter() - started
    return profiler


class TestLayerNames:
    def test_layers_are_the_benchmark_ledgers(self):
        ledger = importlib.import_module("perfbench.ledger")
        assert LAYERS == ledger.LAYERS

    def test_compiled_core_methods_book_by_type(self):
        keys = {}
        for text, layer in (
                ("<method 'fold' of 'repro.sim._cengine.FabricPath' "
                 "objects>", "net"),
                ("<method 'run' of 'repro.sim._cengine.Engine' objects>",
                 "sim"),
                ("<method 'cancel' of 'repro.sim._cengine.Event' "
                 "objects>", "sim"),
                ("<method 'fire' of 'repro.sim._cengine.SynFastPath' "
                 "objects>", "net"),
                ("<method 'deliver' of 'repro.sim._cengine.SynFastPath' "
                 "objects>", "net"),
                ("<method 'send' of 'repro.sim._cengine.ReplyFastPath' "
                 "objects>", "net"),
                ("<method 'send' of 'repro.sim._cengine.DeliveryPath' "
                 "objects>", "net"),
                ("<method 'deliver' of 'repro.sim._cengine.DeliveryPath' "
                 "objects>", "net")):
            module, qualname = _frame_key(text, keys)
            assert module == CORE_MODULE
            assert layer_of(module, qualname) == layer
        assert _frame_key("<built-in method _hashlib.openssl_sha256>",
                          keys) is None
        assert _frame_key("<method 'get' of 'dict' objects>", keys) is None


class TestProfilerBucketsEdgeCases:
    def test_mixed_callback_zoo_profiles_cleanly(self):
        engine = Engine()

        class Dispatcher:
            def __call__(self):
                pass

        seen = []
        engine.schedule(1.0, seen.append, 1)
        engine.schedule(2.0, functools.partial(seen.append, 2))
        engine.schedule(3.0, lambda: seen.append(3))
        engine.schedule(4.0, Dispatcher())
        with Profiler() as profiler:
            engine.run()
        assert seen == [1, 2, 3]
        # Callbacks defined outside repro book to the engine that ran
        # them; every row is a repro function or a compiled-core method.
        assert profiler.layers["sim"][1] > 0.0
        for layer, module, _, _, _, _ in profiler.function_rows():
            assert layer in VALID_LAYERS
            assert module.startswith("repro.")


class TestBooking:
    def test_foreign_time_books_to_the_repro_caller(self):
        from repro.puzzles.juels import JuelsBrainardScheme
        from repro.puzzles.params import PuzzleParams

        scheme = JuelsBrainardScheme(mode="modeled")
        params = PuzzleParams(k=1, m=8)
        with Profiler() as profiler:
            for isn in range(2000):
                scheme.issue_preimage(params, 1, 2, 3, 80, isn, 1.0)
        # No hashlib or struct row: their time is issue_preimage's. The
        # only other row is the profiler's own exit.
        rows = profiler.function_rows()
        assert {(layer, qualname) for layer, _, qualname, _, _, _ in rows
                if layer != "puzzles"} == {("obs", "Profiler.__exit__")}
        (issue,) = [row for row in rows if row[2].endswith("preimage")]
        assert issue[4] >= 0.9 * issue[5]
        assert profiler.layers[OTHER][1] < 0.05 * profiler.wall_seconds

    def test_repeated_blocks_add_up(self):
        profiler = Profiler()
        for _ in range(2):
            engine = Engine()
            engine.schedule(1.0, engine.stop)
            with profiler:
                engine.run()
        (run,) = [row for row in profiler.function_rows()
                  if row[2].endswith(".run") and row[0] == "sim"]
        assert run[3] == 2
        assert profiler.layers["sim"][0] == sum(
            row[3] for row in profiler.function_rows() if row[0] == "sim")

    def test_raising_block_restores_the_profile_hook(self):
        before = sys.getprofile()
        profiler = Profiler()
        with pytest.raises(RuntimeError):
            with profiler:
                Engine().run()
                raise RuntimeError("boom")
        assert sys.getprofile() is before
        assert profiler.wall_seconds > 0.0

    def test_perf_profile_memory_bracket_cleans_up_on_raise(
            self, monkeypatch):
        from repro.cli import main

        def exploding_run(self):
            raise RuntimeError("boom")

        monkeypatch.setattr(Scenario, "run", exploding_run)
        hooks = list(gc.callbacks)
        assert not tracemalloc.is_tracing()
        with pytest.raises(RuntimeError):
            main(["perf", "profile", "--time-scale", "0.01",
                  "--clients", "1", "--attackers", "1", "--memory"])
        assert gc.callbacks == hooks
        assert not tracemalloc.is_tracing()
        assert sys.getprofile() is None


@pytest.fixture(scope="module")
def cookies_profiles():
    """The fig8 cookies cell: one warm-up run (fills the memo caches),
    then two profiled runs."""
    config = _flood_cell("cookies", "connect")
    Scenario(config).run()
    return _profiled(config), _profiled(config)


class TestConnectionFloodCell:
    def test_active_layers_have_self_time(self, cookies_profiles):
        profiler = cookies_profiles[0]
        assert set(profiler.layers) == VALID_LAYERS
        for layer in ("tcp.stack", "tcp.listener", "tcp.syncookies",
                      "net", "hosts", "sim"):
            assert profiler.layers[layer][1] > 0.0, layer
        rows = {(module, qualname): layer for layer, module, qualname,
                _, _, _ in profiler.function_rows()}
        assert rows[("repro.hosts.attacker", "ConnectionFlooder._fire")] \
            == "hosts"

    def test_call_counts_repeat(self, cookies_profiles):
        first, second = cookies_profiles
        assert {layer: calls for layer, (calls, _) in first.layers.items()} \
            == {layer: calls for layer, (calls, _)
                in second.layers.items()}

    def test_time_is_fully_booked(self, cookies_profiles):
        for profiler in cookies_profiles:
            booked = sum(self_s for _, self_s in profiler.layers.values())
            assert 0.95 * profiler.outer_wall <= booked \
                <= profiler.outer_wall


class TestSynFloodCell:
    def test_hashing_books_under_puzzles(self):
        profiler = _profiled(_flood_cell("challenges-m8", "syn"))
        rows = profiler.function_rows()
        for layer, module, _, _, _, _ in rows:
            assert module.startswith("repro."), module
            assert layer in VALID_LAYERS
        (issue,) = [row for row in rows
                    if row[2] == "JuelsBrainardScheme.issue_preimage"]
        layer, _, _, calls, self_s, cum_s = issue
        # Its callees are hashlib and struct: their time is its own.
        assert layer == "puzzles" and calls > 0
        assert self_s >= 0.8 * cum_s
        assert profiler.layers["puzzles"][1] >= self_s

    @pytest.mark.skipif(CFabricPath is None,
                        reason="compiled fabric fold not adopted")
    def test_compiled_flood_paths_book_to_net(self):
        profiler = _profiled(_flood_cell("cookies", "syn"))
        calls = {(row[2], row[0]): row[3]
                 for row in profiler.function_rows()}
        # Python calls each bot's loop once (its first fire) and the
        # reply path once per SYN-ACK; the engine calls the rest in C.
        assert calls[("SynFastPath.fire", "net")] == 10
        assert calls[("ReplyFastPath.send", "net")] > 1000
        assert ("SynFastPath.deliver", "net") not in calls


class TestZeroOverheadBranch:
    def _count_perf_counter_calls(self, monkeypatch, events, profiled):
        import repro.sim.engine as engine_module

        real = engine_module.perf_counter
        calls = [0]

        def counting():
            calls[0] += 1
            return real()

        monkeypatch.setattr(engine_module, "perf_counter", counting)
        engine = Engine()
        seen = []
        for i in range(events):
            engine.schedule(float(i + 1), seen.append, i)
        profiler = Profiler()
        if profiled:
            with profiler:
                engine.run()
        else:
            engine.run()
        assert len(seen) == events
        return calls[0], profiler

    def test_detached_engine_makes_zero_timing_calls_per_event(
            self, monkeypatch):
        """The regression gate for the engine's run-level timing: `run`
        calls perf_counter exactly twice per run (start/stop
        bookkeeping) — never per event."""
        for events in (1, 10, 100):
            calls, _ = self._count_perf_counter_calls(monkeypatch, events,
                                                      profiled=False)
            assert calls == 2, (
                f"{calls} perf_counter calls for {events} events — the "
                f"engine must not time dispatches")

    def test_attached_profiler_times_each_event(self, monkeypatch):
        """A profiled run times every dispatch through cProfile, and the
        engine itself still makes only its two run-level calls."""
        calls, profiler = self._count_perf_counter_calls(
            monkeypatch, 10, profiled=True)
        assert calls == 2
        (run,) = [row for row in profiler.function_rows()
                  if row[2].endswith(".run") and row[0] == "sim"]
        assert run[3] == 1
        assert run[4] > 0.0

    def test_detached_telemetry_adds_no_per_event_cost(self, monkeypatch):
        """The streaming-telemetry extension of the gate: a scenario
        with ``telemetry=None`` (the default) records no telemetry
        series, hangs no attribution sketches on the listener, and still
        makes exactly the two run-level perf_counter calls — per-event
        cost stays zero when telemetry is detached."""
        import repro.sim.engine as engine_module

        real = engine_module.perf_counter
        calls = [0]

        def counting():
            calls[0] += 1
            return real()

        monkeypatch.setattr(engine_module, "perf_counter", counting)
        config = ScenarioConfig(seed=3, time_scale=0.01, n_clients=2,
                                n_attackers=2)
        result = Scenario(config).run()
        assert result.sampler.as_dict() == {}
        assert summarize(result).timeseries == {}
        assert result.attribution is None
        assert result.server_app.listener.attribution is None
        assert result.engine.stats()["events_processed"] > 100
        assert calls[0] == 2, (
            f"{calls[0]} perf_counter calls with telemetry detached — "
            f"the off path must not time anything per event")
