"""The profiler's perf tooling: layer attribution rollups, heap churn,
flamegraph export, the manifest payload and `perf profile --memory`."""

import gc
import json

import pytest

from repro.net.fabric import CFabricPath
from repro.obs.profile import (
    CORE_MODULE,
    CORE_TYPE_LAYERS,
    LAYERS,
    OTHER,
    Profiler,
    heap_churn,
    layer_of,
    render_heap_churn,
)
from repro.sim.engine import Engine


def _profiled_engine_run(events: int = 50) -> Profiler:
    engine = Engine()
    seen = []
    for i in range(events):
        engine.schedule(float(i + 1), seen.append, i)
    engine.schedule(float(events + 9), engine.stop)
    with Profiler() as profiler:
        engine.run()
    return profiler


class TestComponentMapping:
    """Which layer a module's functions, or a compiled-core method,
    book to (:func:`~repro.obs.profile.layer_of`)."""

    @pytest.mark.parametrize("module,component", [
        ("repro.tcp.listener", "tcp.listener"),
        ("repro.tcp.queues", "tcp.listener"),
        ("repro.tcp", "tcp.stack"),
        ("repro.tcp.connection", "tcp.stack"),
        ("repro.tcp.syncache", "tcp.syncache"),
        ("repro.tcp.syncookies", "tcp.syncookies"),
        ("repro.tcp.overload", "tcp.overload"),
        ("repro.net.network", "net"),
        ("repro.puzzles.codec", "puzzles"),
        ("repro.crypto.sha256", "puzzles"),
        ("repro.obs.trace", "obs"),
        ("repro.metrics.series", "obs"),
        ("repro.sim.engine", "sim"),
        ("repro.sim.process", "sim"),
        ("repro.hosts.server", "hosts"),
        ("repro.experiments.scenario", "experiments"),
        ("repro.runner.runner", "runner"),
        ("repro.faults.injectors", OTHER),
        ("builtins", OTHER),
        ("repro.tcpdump", OTHER),   # prefix must match at a dot
    ])
    def test_component_of(self, module, component):
        assert layer_of(module) == component

    @pytest.mark.parametrize("module,qualname,component", [
        # Compiled-core frames map by type: dispatch machinery is sim,
        # the fabric fold books beside the Python fabric.
        ("repro.sim._cengine", "FabricPath.fold", "net"),
        ("repro.sim._cengine", "FabricPath", "net"),
        ("repro.sim._cengine", "Engine.run", "sim"),
        ("repro.sim._cengine", "Event.cancel", "sim"),
        ("repro.sim._cengine", "Mystery.method", OTHER),
        # Everything else defers to the module mapping.
        ("repro.net.network", "Network.send", "net"),
        ("repro.tcp.listener", "ListenSocket.handle_syn", "tcp.listener"),
        ("builtins", "print", OTHER),
    ])
    def test_component_of_frame(self, module, qualname, component):
        assert layer_of(module, qualname) == component


class TestAttributionProfiler:
    def test_component_rollup_sums_match_per_kind(self):
        profiler = _profiled_engine_run()
        rows = profiler.function_rows()
        assert rows
        for layer in LAYERS:
            calls, self_s = profiler.layers[layer]
            assert calls == sum(row[3] for row in rows if row[0] == layer)
            assert self_s == pytest.approx(
                sum(row[4] for row in rows if row[0] == layer))
        # Shares are of the profiled wall, which bounds what is booked.
        total = sum(share for _, _, _, share in profiler.layer_rows())
        assert 0.0 < total <= 1.0

    def test_engine_methods_attribute_to_engine_component(self):
        profiler = _profiled_engine_run(events=1)
        runs = [row for row in profiler.function_rows()
                if row[2].endswith(".run")]
        assert runs and all(row[0] == "sim" for row in runs)
        assert profiler.layers["sim"][0] >= 1

    def test_packet_path_frames_roll_up_under_net(self, monkeypatch):
        # A connection-flood cell: whichever packet path is adopted (the
        # compiled DeliveryPath.send, or Network.send folding through
        # the Python fold) books to net. The compiled send folds inside
        # C, where cProfile cannot see the fold, so its own frames carry
        # the check.
        from repro.experiments.scenario import Scenario, ScenarioConfig

        config = ScenarioConfig(time_scale=0.005, n_clients=1,
                                n_attackers=1, attack_style="connect")
        with Profiler() as profiler:
            Scenario(config).run()

        def packet_path_rows():
            return [row for row in profiler.function_rows()
                    if row[2] in ("DeliveryPath.send", "FabricPath.fold",
                                  "fold_links")]

        rows = packet_path_rows()
        assert rows and all(row[0] == "net" for row in rows)
        assert {row[1] for row in rows} <= {CORE_MODULE,
                                            "repro.net.fabric"}
        if CFabricPath is not None:
            assert "DeliveryPath.send" in {row[2] for row in rows}
            # The check can fail: book the compiled send elsewhere.
            monkeypatch.setitem(CORE_TYPE_LAYERS, "DeliveryPath", "sim")
            assert not all(row[0] == "net" for row in packet_path_rows())

    def test_render_components_table(self):
        table = _profiled_engine_run().render_layers()
        header, *body = table.splitlines()
        assert "self %" in header and "layer" in header
        named = {line.split()[-1] for line in body[:-1]}
        assert named == set(LAYERS) | {OTHER}
        assert "booked of" in body[-1]

    def test_empty_profile_renders(self):
        profiler = Profiler()
        assert "booked of" in profiler.render_layers()
        assert profiler.collapsed_stacks() == []
        assert profiler.function_rows() == []

    def test_memory_and_gc_accounting(self, capsys, tmp_path):
        from repro.cli import main

        hooks = list(gc.callbacks)
        assert main(["perf", "profile", "--time-scale", "0.005",
                     "--clients", "1", "--attackers", "1", "--memory",
                     "-o", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "(tracemalloc)" in out
        assert "gc:" in out
        body = json.loads(
            (tmp_path / "BENCH_profile_syn_puzzles.json").read_text())
        assert body["profile"]["memory"]["peak_bytes"] > 0
        assert body["profile"]["gc"]["collections"] >= 0
        assert gc.callbacks == hooks


class TestHeapChurn:
    def test_churn_accounting(self):
        engine = Engine()
        events = [engine.schedule(float(i + 1), lambda: None)
                  for i in range(10)]
        events[0].cancel()
        engine.run(until=5.0)
        churn = heap_churn(engine)
        assert churn["schedules"] == 10
        assert churn["cancellations"] == 1
        assert churn["pops"] == churn["schedules"] - engine.pending
        assert churn["schedules_per_sim_second"] == pytest.approx(10 / 5.0)
        assert "sched" in render_heap_churn(churn)

    def test_fresh_engine_has_no_rates(self):
        churn = heap_churn(Engine())
        assert churn["schedules"] == 0
        assert "schedules_per_sim_second" not in churn
        render_heap_churn(churn)   # must not raise


class TestFlamegraph:
    def test_collapsed_stack_format(self):
        lines = _profiled_engine_run().collapsed_stacks()
        assert lines
        for line in lines:
            stack, _, value = line.rpartition(" ")
            frames = stack.split(";")
            # layer;module;qualname — the three-deep speedscope view.
            assert len(frames) == 3
            assert frames[0] in set(LAYERS) | {OTHER}
            assert int(value) > 0

    def test_write_flamegraph(self, tmp_path):
        profiler = _profiled_engine_run()
        target = tmp_path / "deep" / "flame.txt"
        count = profiler.write_flamegraph(target)
        text = target.read_text()
        assert count == len([l for l in text.splitlines() if l])
        assert ".run " in text


class TestProfilePayload:
    def test_payload_blocks(self):
        profiler = _profiled_engine_run()
        payload = profiler.as_payload()
        assert set(payload) == {"wall_seconds", "layers", "functions"}
        assert set(payload["layers"]) == set(LAYERS) | {OTHER}
        assert [row["qualname"] for row in payload["functions"]] == \
            [row[2] for row in profiler.function_rows()][:25]
        json.dumps(payload)   # JSON-friendly as is


class TestScenarioIntegration:
    @pytest.mark.slow
    def test_scenario_attribution_profile(self):
        from repro.experiments.scenario import Scenario, ScenarioConfig

        config = ScenarioConfig(time_scale=0.01, n_clients=2,
                                n_attackers=1, attack_style="syn")
        with Profiler() as profiler:
            Scenario(config).run()
        # A flood run must book work to the network and listener layers.
        assert profiler.layers["net"][1] > 0.0
        assert profiler.layers["tcp.listener"][1] > 0.0
        assert profiler.layers["puzzles"][0] > 0
