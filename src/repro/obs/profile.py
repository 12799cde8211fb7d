"""Profiling: where a block's wall time goes, layer by layer.

:class:`Profiler` runs :mod:`cProfile` around a block and rolls its
per-function self time and call counts up to the twelve layers the
benchmark's ledger uses (:data:`LAYERS`, after the ``src/repro`` modules
they cover) plus ``other``::

    with Profiler() as profiler:
        Scenario(config).run()
    print(profiler.render_layers())

*Self time* is the time spent in a function's own code, not in the
``repro`` functions it calls. Time spent outside ``repro`` — hashlib,
``random``, builtins, dataclass-generated methods — is charged to the
``repro`` function that called it, using the per-caller time cProfile
records; a foreign function called by another foreign function is split
over that caller's callers in proportion to its cumulative time under
each. The compiled core's methods book by type when Python calls them:
``FabricPath``, ``DeliveryPath``, ``SynFastPath`` and ``ReplyFastPath``
to ``net``, ``Engine`` and ``Event`` to ``sim``. Work the engine
dispatches in C (a compiled flood loop's fires, and the compiled
deliveries up to the Python stack they end in) is invisible to cProfile
and books to ``sim``, as it does in the ledger. Call counts are the
calls of each layer's own functions; foreign calls are counted nowhere.

The tables read alike to the ledger's, with one known skew: cProfile's
cost per call inflates Python frames relative to the compiled dispatch
loop, so ``sim`` reads lower here than in the ledger. A profiled run is
about three times slower than an unprofiled one; an unprofiled run pays
nothing, since nothing in the simulator knows about profiling.
:mod:`cProfile` is imported on first use.

The same module reports engine heap churn (:func:`heap_churn`), the
scheduler traffic a profile should be read against.
"""

from __future__ import annotations

import os
import pathlib
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: Layers, named after the ``src/repro`` modules they cover (the
#: benchmark ledger's layer names, in its order).
LAYERS: Tuple[str, ...] = (
    "sim", "experiments", "runner", "net", "tcp.listener", "tcp.stack",
    "tcp.syncache", "tcp.syncookies", "tcp.overload", "puzzles", "hosts",
    "obs")

#: Everything no layer covers: ``repro`` modules outside the layers and
#: foreign code with no ``repro`` caller.
OTHER = "other"

#: Module prefix -> layer; the longest matching prefix wins.
MODULE_LAYERS: Dict[str, str] = {
    "repro.sim": "sim",
    "repro.experiments": "experiments",
    "repro.runner": "runner",
    "repro.net": "net",
    "repro.tcp": "tcp.stack",
    "repro.tcp.listener": "tcp.listener",
    "repro.tcp.queues": "tcp.listener",
    "repro.tcp.syncache": "tcp.syncache",
    "repro.tcp.syncookies": "tcp.syncookies",
    "repro.tcp.overload": "tcp.overload",
    "repro.puzzles": "puzzles",
    "repro.crypto": "puzzles",
    "repro.hosts": "hosts",
    "repro.obs": "obs",
    "repro.metrics": "obs",
}

#: The compiled core, and the layer of each of its types' methods.
CORE_MODULE = "repro.sim._cengine"
CORE_TYPE_LAYERS: Dict[str, str] = {
    "Engine": "sim", "Event": "sim", "FabricPath": "net",
    "DeliveryPath": "net", "SynFastPath": "net", "ReplyFastPath": "net"}

#: Functions a manifest's ``profile.functions`` lists, by self time.
PAYLOAD_FUNCTIONS = 25

_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def layer_of(module: str, qualname: str = "") -> str:
    """The layer a ``repro`` function belongs to (``other`` if none)."""
    if module == CORE_MODULE:
        return CORE_TYPE_LAYERS.get(qualname.split(".", 1)[0], OTHER)
    while module:
        layer = MODULE_LAYERS.get(module)
        if layer is not None:
            return layer
        module = module.rpartition(".")[0]
    return OTHER


def _module_of(filename: str) -> Optional[str]:
    """The ``repro`` module a source file defines, or None."""
    path = os.path.abspath(filename)
    if not path.startswith(_PACKAGE_DIR + os.sep) or \
            not path.endswith(".py"):
        return None
    parts = ["repro"] + path[len(_PACKAGE_DIR) + 1:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _frame_key(code, modules: Dict[str, Optional[str]]
               ) -> Optional[Tuple[str, str]]:
    """``(module, qualname)`` of a profiled ``repro`` function or
    compiled-core method; None for foreign code."""
    if isinstance(code, str):
        # Builtins: "<method 'fold' of 'repro.sim._cengine.FabricPath'
        # objects>"; only the compiled core's methods are ours.
        head, _, rest = code.partition(" of '" + CORE_MODULE + ".")
        if not rest or not head.startswith("<method '"):
            return None
        return CORE_MODULE, (rest.partition("'")[0] + "."
                             + head[len("<method '"):-1])
    filename = code.co_filename
    if filename not in modules:
        modules[filename] = _module_of(filename)
    module = modules[filename]
    if module is None:
        return None
    return module, getattr(code, "co_qualname", code.co_name)


class Profiler:
    """cProfile around a block, rolled up to :data:`LAYERS`.

    Use as a context manager; the tables fill when the block exits
    (also when it raises), and add up over repeated blocks.
    ``functions`` maps ``(module, qualname)`` to ``[calls, self seconds,
    cumulative seconds]``.
    """

    def __init__(self) -> None:
        self.wall_seconds = 0.0
        self.functions: Dict[Tuple[str, str], List[float]] = {}
        #: Foreign time that reached no ``repro`` function (``other``).
        self.unplaced_seconds = 0.0
        self._profile = None
        self._started = 0.0

    def __enter__(self) -> "Profiler":
        import cProfile

        self._profile = cProfile.Profile()
        self._started = perf_counter()
        self._profile.enable()
        return self

    def __exit__(self, *exc) -> bool:
        self._profile.disable()
        self.wall_seconds += perf_counter() - self._started
        entries = self._profile.getstats()
        self._profile = None
        self._book(entries)
        return False

    # ------------------------------------------------------------------
    def _book(self, entries) -> None:
        modules: Dict[str, Optional[str]] = {}
        keys = {entry.code: _frame_key(entry.code, modules)
                for entry in entries}
        functions = self.functions
        # callee code -> [(caller code, inline s, cumulative s)]
        callers: Dict[object, List[Tuple[object, float, float]]] = {}
        for entry in entries:
            key = keys[entry.code]
            if key is not None:
                row = functions.setdefault(key, [0, 0.0, 0.0])
                row[0] += entry.callcount
                row[1] += entry.inlinetime
                row[2] += entry.totaltime
            for sub in entry.calls or ():
                if keys.get(sub.code, 0) is None:
                    callers.setdefault(sub.code, []).append(
                        (entry.code, sub.inlinetime, sub.totaltime))
        shares: Dict[object, Dict[Optional[Tuple[str, str]], float]] = {}
        for entry in entries:
            if keys[entry.code] is not None:
                continue
            booked = 0.0
            for caller, inline, _ in callers.get(entry.code, ()):
                booked += inline
                owner = keys[caller]
                split = ({owner: 1.0} if owner is not None else
                         _shares(caller, keys, callers, shares, set()))
                for key, weight in split.items():
                    if key is None:
                        self.unplaced_seconds += inline * weight
                    else:
                        functions.setdefault(key, [0, 0.0, 0.0])[1] += \
                            inline * weight
            # Foreign time with no recorded caller (the block's own
            # calls into foreign code).
            self.unplaced_seconds += max(entry.inlinetime - booked, 0.0)

    # ------------------------------------------------------------------
    @property
    def layers(self) -> Dict[str, List[float]]:
        """``[calls, self seconds]`` of every layer and ``other``, in
        :data:`LAYERS` order."""
        layers: Dict[str, List[float]] = {
            layer: [0, 0.0] for layer in LAYERS + (OTHER,)}
        layers[OTHER][1] = self.unplaced_seconds
        for (module, qualname), (calls, self_s, _) in \
                self.functions.items():
            row = layers[layer_of(module, qualname)]
            row[0] += calls
            row[1] += self_s
        return layers

    def layer_rows(self) -> List[Tuple[str, int, float, float]]:
        """``(layer, calls, self seconds, share of wall)``, by self time."""
        wall = self.wall_seconds or 1.0
        rows = [(layer, int(calls), self_s, self_s / wall)
                for layer, (calls, self_s) in self.layers.items()]
        rows.sort(key=lambda row: (-row[2], row[0]))
        return rows

    def function_rows(self) -> List[Tuple[str, str, str, int, float,
                                          float]]:
        """``(layer, module, qualname, calls, self s, cumulative s)``,
        by self time."""
        rows = [(layer_of(module, qualname), module, qualname, int(calls),
                 self_s, cum_s)
                for (module, qualname), (calls, self_s, cum_s)
                in self.functions.items()]
        rows.sort(key=lambda row: (-row[4], row[1], row[2]))
        return rows

    def render_layers(self) -> str:
        """The per-layer table."""
        lines = [f"{'self %':>7s}  {'self s':>9s}  {'calls':>10s}  layer"]
        booked = 0.0
        for layer, calls, self_s, share in self.layer_rows():
            lines.append(f"{100.0 * share:6.1f}%  {self_s:9.4f}  "
                         f"{calls:10d}  {layer}")
            booked += self_s
        lines.append(f"{booked:.4f}s booked of {self.wall_seconds:.4f}s "
                     f"profiled wall")
        return "\n".join(lines)

    def render_functions(self, top: int = 15) -> str:
        """The *top* functions by self time."""
        rows = self.function_rows()
        lines = [f"{'self %':>7s}  {'self s':>9s}  {'cum s':>9s}  "
                 f"{'calls':>10s}  {'layer':<14s}  function"]
        wall = self.wall_seconds or 1.0
        for layer, module, qualname, calls, self_s, cum_s in rows[:top]:
            lines.append(f"{100.0 * self_s / wall:6.1f}%  {self_s:9.4f}  "
                         f"{cum_s:9.4f}  {calls:10d}  {layer:<14s}  "
                         f"{module}:{qualname}")
        if len(rows) > top:
            lines.append(f"... ({len(rows) - top} more functions)")
        return "\n".join(lines)

    def collapsed_stacks(self) -> List[str]:
        """``layer;module;qualname self_us`` lines, by self time.

        The collapsed-stack format ``flamegraph.pl`` and speedscope load;
        one sample is one microsecond of self time.
        """
        lines = []
        for layer, module, qualname, _, self_s, _ in self.function_rows():
            micros = int(round(self_s * 1e6))
            if micros > 0:
                lines.append(f"{layer};{module};{qualname} {micros}")
        return lines

    def write_flamegraph(self, path) -> int:
        """Write :meth:`collapsed_stacks` to *path*; returns the lines."""
        lines = self.collapsed_stacks()
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(lines) + ("\n" if lines else ""))
        return len(lines)

    def as_payload(self) -> Dict[str, object]:
        """Manifest block: the layer table and the top functions."""
        return {
            "wall_seconds": self.wall_seconds,
            "layers": {layer: {"calls": calls, "self_seconds": self_s,
                               "share": share}
                       for layer, calls, self_s, share
                       in sorted(self.layer_rows())},
            "functions": [
                {"layer": layer, "module": module, "qualname": qualname,
                 "calls": calls, "self_seconds": self_s,
                 "cumulative_seconds": cum_s}
                for layer, module, qualname, calls, self_s, cum_s
                in self.function_rows()[:PAYLOAD_FUNCTIONS]],
        }


def _shares(code, keys, callers, memo, active
            ) -> Dict[Optional[Tuple[str, str]], float]:
    """How a foreign function's time splits over ``repro`` functions:
    over its callers by cumulative time, through foreign callers
    recursively. A foreign call cycle is cut; time that reaches no
    ``repro`` function is keyed None (``other``)."""
    if code in memo:
        return memo[code]
    active.add(code)
    split: Dict[Optional[Tuple[str, str]], float] = {}
    edges = [(caller, cum) for caller, _, cum in callers.get(code, ())
             if caller not in active]
    total = sum(cum for _, cum in edges)
    for caller, cum in edges:
        weight = cum / total if total > 0 else 1.0 / len(edges)
        owner = keys[caller]
        parts = ({owner: 1.0} if owner is not None else
                 _shares(caller, keys, callers, memo, active))
        for key, share in parts.items():
            split[key] = split.get(key, 0.0) + weight * share
    active.discard(code)
    if not split:
        split = {None: 1.0}
    memo[code] = split
    return split


# ----------------------------------------------------------------------
# Engine heap churn
# ----------------------------------------------------------------------
def heap_churn(engine) -> Dict[str, float]:
    """Engine scheduler traffic, absolute and per simulated second.

    ``schedules`` counts every :meth:`Engine.schedule_at` push, ``pops``
    every entry that left the queues (fired or cancelled), and
    ``cancellations`` every :meth:`Event.cancel`.
    """
    stats = engine.stats()
    sim = stats.get("sim_seconds") or 0.0
    schedules = stats.get("events_scheduled", 0)
    cancelled = stats.get("events_cancelled", 0)
    pops = schedules - stats.get("pending", 0)
    churn = {
        "schedules": float(schedules),
        "pops": float(pops),
        "cancellations": float(cancelled),
        "compactions": float(stats.get("compactions", 0)),
        "heap_high_water": float(stats.get("heap_high_water", 0)),
        "events_processed": float(stats.get("events_processed", 0)),
    }
    if sim > 0:
        churn["schedules_per_sim_second"] = schedules / sim
        churn["pops_per_sim_second"] = pops / sim
        churn["cancellations_per_sim_second"] = cancelled / sim
    return churn


def render_heap_churn(churn: Dict[str, float]) -> str:
    line = (f"heap churn: {churn['schedules']:,.0f} schedules, "
            f"{churn['pops']:,.0f} pops, "
            f"{churn['cancellations']:,.0f} cancellations, "
            f"{churn['compactions']:,.0f} compactions "
            f"(high water {churn['heap_high_water']:,.0f})")
    if "schedules_per_sim_second" in churn:
        line += (f"; per sim-second: "
                 f"{churn['schedules_per_sim_second']:,.0f} sched, "
                 f"{churn['cancellations_per_sim_second']:,.0f} cancel")
    return line
