"""Per-layer self-time ledger for the traced benchmark run.

The ledger times calls into each ``src/repro`` layer from outside the
program: it replaces the public entry points listed in
:data:`ENTRY_POINTS` with timing wrappers, installed on the *class* (or
module) before ``Scenario.build`` runs. Class-level installation keeps
the simulator on its normal code path: ``SynFastPath`` binds
``handle_syn`` at construction and so binds the wrapper, while the fast
paths' materializing fallbacks only trip on *instance*-level overrides.
``HostThroughput.on_rx/on_tx`` are deliberately absent — the fast paths
inline a throughput tap only while its ``__func__`` is the original
class attribute.

Time is booked on transitions: entering a span charges the elapsed
interval to the enclosing layer, leaving it charges the span's layer.
A layer's self time is therefore its spans' duration minus the part
covered by nested spans of any layer, and the self times of all layers
plus the ``outside`` slot add up to the traced wall exactly. Everything
is aggregated in flat lists (about a million calls per workload) and
read out once at the end.

The engine is a C type whose ``run`` cannot be wrapped; ``Scenario.run``
is booked as ``sim`` instead, so ``sim`` self time is the event loop's
own dispatch plus the scenario's start/stop orchestration — the traced
wall minus every span nested below it.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Dict, List, Tuple

#: Layers, named after the ``src/repro`` modules they cover.
LAYERS: Tuple[str, ...] = (
    "sim", "experiments", "runner", "net", "tcp.listener", "tcp.stack",
    "tcp.syncache", "tcp.syncookies", "tcp.overload", "puzzles", "hosts",
    "obs")

#: ``(layer, module, attribute path)`` of every timed entry point.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("sim", "repro.experiments.scenario", "Scenario.run"),
    ("experiments", "repro.experiments.scenario", "Scenario.build"),
    ("runner", "repro.runner.runner", "SweepRunner.map"),
    ("runner", "repro.experiments.summary", "summarize"),
    ("net", "repro.net.network", "Network.send"),
    ("net", "repro.net.network", "Network._deliver"),
    ("net", "repro.net.floodpath", "SynFastPath.send"),
    ("net", "repro.net.floodpath", "SynFastPath._deliver"),
    ("net", "repro.net.floodpath", "SynFastPath._materialize"),
    ("net", "repro.net.floodpath", "ReplyFastPath.send"),
    ("tcp.listener", "repro.tcp.listener", "ListenSocket.handle_syn"),
    ("tcp.listener", "repro.tcp.listener", "ListenSocket.handle_ack"),
    ("tcp.listener", "repro.tcp.listener", "ListenSocket.accept"),
    ("tcp.stack", "repro.tcp.stack", "TCPStack.receive"),
    ("tcp.stack", "repro.tcp.stack", "TCPStack.connect"),
    ("tcp.stack", "repro.tcp.connection", "ClientConnection.handle"),
    ("tcp.stack", "repro.tcp.connection", "ServerConnection.handle"),
    ("tcp.syncache", "repro.tcp.syncache", "SynCache.insert"),
    ("tcp.syncache", "repro.tcp.syncache", "SynCache.complete"),
    ("tcp.syncache", "repro.tcp.syncache",
     "SynCache.expire_shard_older_than"),
    ("tcp.syncookies", "repro.tcp.syncookies", "SynCookieCodec.encode"),
    ("tcp.syncookies", "repro.tcp.syncookies", "SynCookieCodec.decode"),
    ("tcp.overload", "repro.tcp.overload", "AdmissionControl.admit"),
    ("tcp.overload", "repro.tcp.overload", "OverloadWatchdog._tick"),
    ("puzzles", "repro.puzzles.juels",
     "JuelsBrainardScheme.issue_preimage"),
    ("puzzles", "repro.puzzles.juels", "JuelsBrainardScheme.make_challenge"),
    ("puzzles", "repro.puzzles.juels", "JuelsBrainardScheme.verify"),
    ("puzzles", "repro.puzzles.juels", "ModeledSolver.solve"),
    ("hosts", "repro.hosts.attacker", "SynFlooder._fire"),
    ("hosts", "repro.hosts.attacker", "ConnectionFlooder._fire"),
    ("hosts", "repro.hosts.attacker", "ConnectionFlooder._sweep"),
    ("hosts", "repro.hosts.client", "BenignClient._new_request"),
    ("hosts", "repro.hosts.client", "_Request._on_established"),
    ("hosts", "repro.hosts.client", "_Request._on_data"),
    ("hosts", "repro.hosts.client", "_Request._on_timeout"),
    ("hosts", "repro.hosts.server", "AppServer._dispatch"),
    ("hosts", "repro.hosts.server", "_Worker._on_request"),
    ("hosts", "repro.hosts.server", "_Worker._respond"),
    ("hosts", "repro.hosts.server", "_Worker._idle_timeout"),
    ("obs", "repro.obs.hist", "Histogram.record"),
    ("obs", "repro.obs.timeseries", "SimSampler._sample"),
    ("obs", "repro.obs.sketch", "SourceAttribution.on_syn"),
    ("obs", "repro.obs.sketch", "SourceAttribution.on_drop"),
    ("obs", "repro.obs.sketch", "SourceAttribution.on_puzzle_failure"),
)

#: Entry points whose calls are streaming telemetry (``obs.telemetry_calls``).
TELEMETRY_ENTRY_POINTS = frozenset((
    "SimSampler._sample", "SourceAttribution.on_syn",
    "SourceAttribution.on_drop", "SourceAttribution.on_puzzle_failure"))


class Ledger:
    """Flat per-layer, per-edge and per-entry-point accumulators."""

    def __init__(self) -> None:
        self.layers = LAYERS
        n = len(LAYERS)
        #: Index of the pseudo-layer that holds time outside every span.
        self.outside = n
        self.calls = [0] * n
        self.self_s = [0.0] * (n + 1)
        self.inclusive = [0.0] * n
        self._depth = [0] * n
        #: ``edge_calls[parent][child]`` / ``edge_s`` (inclusive seconds).
        self.edge_calls = [[0] * n for _ in range(n + 1)]
        self.edge_s = [[0.0] * n for _ in range(n + 1)]
        #: Calls per entry point, keyed ``"Class.method"``.
        self.entry_calls: Dict[str, List[int]] = {}
        #: Entry points that no longer exist in the program.
        self.missing: List[str] = []
        #: ``[current layer, time of the last transition]``.
        self._state = [self.outside, time.perf_counter()]
        self._installed: List[Tuple[object, str, object]] = []
        #: Hooks run with the return value of ``Scenario.run``.
        self.on_scenario_result = None

    # ------------------------------------------------------------------
    def _wrap(self, fn, layer: int, counter: List[int], observe=None):
        clock = time.perf_counter
        state = self._state
        calls = self.calls
        self_s = self.self_s
        inclusive = self.inclusive
        depth = self._depth
        edge_calls = self.edge_calls
        edge_s = self.edge_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            parent = state[0]
            self_s[parent] += start - state[1]
            state[0] = layer
            state[1] = start
            calls[layer] += 1
            counter[0] += 1
            depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self_s[layer] += end - state[1]
                state[0] = parent
                state[1] = end
                depth[layer] -= 1
                if not depth[layer]:
                    inclusive[layer] += end - start
                edge_calls[parent][layer] += 1
                edge_s[parent][layer] += end - start
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every entry point with its timing wrapper."""
        index = {name: i for i, name in enumerate(self.layers)}
        for layer, module_name, path in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = (vars(owner).get(attr) if owner_name
                        else getattr(module, attr, None))
            if not callable(original) or isinstance(
                    original, (staticmethod, classmethod)):
                self.missing.append(path)
                continue
            counter = self.entry_calls.setdefault(path, [0])
            observe = (self._observe_scenario if path == "Scenario.run"
                       else None)
            setattr(owner, attr,
                    self._wrap(original, index[layer], counter, observe))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _observe_scenario(self, result) -> None:
        if self.on_scenario_result is not None:
            self.on_scenario_result(result)

    # ------------------------------------------------------------------
    def mark(self) -> None:
        """Start a traced interval: book nothing before this instant."""
        self._state[0] = self.outside
        self._state[1] = time.perf_counter()

    def close(self) -> None:
        """End a traced interval, booking its tail to ``outside``."""
        now = time.perf_counter()
        self.self_s[self._state[0]] += now - self._state[1]
        self._state[1] = now

    def calls_of(self, path: str) -> int:
        counter = self.entry_calls.get(path)
        return counter[0] if counter is not None else 0

    def edges(self) -> Dict[str, Dict[str, float]]:
        """Nonzero ``parent->child`` edges (parent ``outside`` for roots)."""
        names = list(self.layers) + ["outside"]
        out: Dict[str, Dict[str, float]] = {}
        for p, row in enumerate(self.edge_calls):
            for c, count in enumerate(row):
                if count:
                    out[f"{names[p]}->{names[c]}"] = {
                        "calls": count, "inclusive_s": self.edge_s[p][c]}
        return out
