#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer cost of the flood
simulator on three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload syn_flood --seed 1 --seconds 30 --trace 0

Workloads are ``syn_flood``, ``conn_flood`` and ``overload_ladder`` (see
``perfbench/workloads.py`` for what each one exercises and why).

One invocation does, in order:

1. a warm-up process that imports the simulator, which compiles the C
   engine core once (cached under ``src/repro/sim/_build/``) and writes
   the bytecode caches, so no timed process pays the compiler;
2. ``SETUP_PROBES`` fresh processes that each import the simulator and
   build the workload's first cell; ``setup_s`` is the median time from
   spawn to "ready", scaled to the reference host speed;
3. one fresh workload process (fresh, because ``ru_maxrss`` only grows)
   that runs the workload's cells pass after pass for ``--seconds`` and
   checks every cell (``perfbench/checks.py``). The first pass warms the
   process up and is checked but not timed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``sim_wall_ratio`` (simulated seconds per wall second, each cell's wall
scaled to a reference host speed by ``perfbench/speed.py`` and taken as
the median over the passes), ``setup_s`` and ``peak_rss_mb``. With
``--trace 1`` the workload process spends half its time untraced and
half traced through ``perfbench/ledger.py`` and reports per-layer calls,
self time and shares plus per-layer ratios. The full record (provenance,
per-cell digests, the per-edge ledger) is written to
``perfbench/out/``. The exit code is 0 only when every cell passed its
checks.

``--inject-fault LABEL`` alters one MIB counter of that cell after it
runs, to show that the checks catch it; ``--write-digests`` (at the
default seed) re-pins the model digests after an intended model change.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")

#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 5
#: Hard limits for the helper processes, in seconds.
BUILD_TIMEOUT_S = 840
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 150
#: Traced run: Σ layer self time must cover the traced wall this closely.
ACCOUNTING_TOLERANCE = 0.02


def _ensure_paths() -> None:
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a cell failure)."""


# ----------------------------------------------------------------------
# Helper-process roles
# ----------------------------------------------------------------------
def role_warm() -> int:
    _ensure_paths()
    import repro.experiments  # noqa: F401  (builds the C core once)
    import repro.faults.chaos  # noqa: F401
    return 0


def role_probe(args) -> int:
    """Import and build, bracketed by speed probes run in this process;
    prints ``ready <probe before> <probe after>``."""
    from perfbench import speed

    before = speed.probe_s()
    _ensure_paths()
    from perfbench import workloads
    from repro.experiments import Scenario

    Scenario(workloads.first_cell_config(args.workload, args.seed)).build()
    print("ready", before, speed.probe_s(), flush=True)
    return 0


def provenance() -> dict:
    """What actually ran: adopted cores, knobs, sources, interpreter."""
    from repro.net import fabric
    from repro.sim import engine

    source = os.path.join(SRC, "repro", "sim", "_cengine.c")
    sha = None
    if os.path.isfile(source):
        with open(source, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
    engine_cls = engine.Engine
    fabric_cls = getattr(fabric, "FabricPath", None)
    return {
        "engine_class": f"{engine_cls.__module__}.{engine_cls.__qualname__}",
        "engine_core": ("c" if getattr(engine, "CEngine", None) is not None
                        else "python"),
        "fabric_class": (f"{fabric_cls.__module__}.{fabric_cls.__qualname__}"
                         if fabric_cls is not None else None),
        "fabric_fold": ("c" if getattr(fabric, "CFabricPath", None)
                        is not None else "python"),
        "fabric_batched": getattr(fabric, "BATCHED", None),
        "REPRO_ENGINE": os.environ.get("REPRO_ENGINE"),
        "REPRO_FABRIC": os.environ.get("REPRO_FABRIC"),
        "cengine_sha256": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


class CellBook:
    """Per-cell checks and timings across passes."""

    def __init__(self, pinned, inject) -> None:
        self.pinned = pinned
        self.inject = inject
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}
        self.events = {}
        self.sim_s = {}
        #: Per-cell walls of the timed untraced passes, scaled to the
        #: reference host speed; ``raw_walls`` as measured.
        self.walls = defaultdict(list)
        self.raw_walls = defaultdict(list)
        self.cells_per_pass = 0

    def fail(self, label: str, problems) -> None:
        self.failed += 1
        self.failures.append({"cell": label, "problems": list(problems)})

    def fail_pass(self, phase: str) -> None:
        """A pass raised: every cell of it counts as attempted and failed."""
        cells = max(self.cells_per_pass, 1)
        self.attempted += cells
        for _ in range(cells):
            self.fail(f"<{phase} pass>", ["pass raised; see stderr"])

    def check_pass(self, suite, stats, phase: str, timed: bool,
                   scale=None) -> None:
        from perfbench import checks

        self.cells_per_pass = len(suite)
        runner_ok = (stats.cache_hits == 0
                     and stats.cells_run == stats.cells_total == len(suite))
        cell_stats = {cell.label: cell for cell in stats.cells}
        for label, summary in suite.items():
            self.attempted += 1
            if label == self.inject:
                server = summary.counters.setdefault("server", {})
                server["SynsRecv"] = server.get("SynsRecv", 0) + 1
            problems = checks.identity_failures(summary)
            if not runner_ok:
                problems.append(f"runner served cached cells: {stats.cache_hits} "
                                f"hits, {stats.cells_run}/{stats.cells_total} run")
            digest = checks.digest(summary)
            first = self.digests.setdefault(label, digest)
            if digest != first:
                problems.append(f"{phase} digest differs from the first pass")
            if self.pinned is not None and self.pinned.get(label) != digest:
                problems.append("digest differs from the pinned value")
            events = summary.engine_stats.get("events_processed")
            if self.events.setdefault(label, events) != events:
                problems.append(f"{phase} engine events differ from the "
                                "first pass")
            if problems:
                self.fail(label, problems)
            cell = cell_stats.get(label)
            if cell is not None:
                self.sim_s[label] = cell.sim_seconds
                if timed and scale is not None:
                    self.walls[label].append(
                        cell.wall_seconds * scale[cell.index])
                    self.raw_walls[label].append(cell.wall_seconds)

    def sim_wall_ratio(self, walls=None) -> float:
        walls = self.walls if walls is None else walls
        total = sum(statistics.median(w) for w in walls.values())
        return sum(self.sim_s[label] for label in walls) / total \
            if total > 0 else 0.0


def run_passes(workload, seed, budget, book, phase, ledger=None,
               on_pass=None, warmup=False, probe=None):
    """Run whole passes until the next one would overrun *budget*;
    returns the wall times of the timed passes (at least one).

    With a speed *probe* (untraced runs only: the ledger would book its
    loop) the cells' walls are also recorded scaled to the reference host
    speed, and the probe's own time is left out of the pass walls.

    With *warmup* the first pass is checked but not timed: it pays for
    lazy imports, first-call paths and heap growth, which later passes
    (and users running a whole suite) do not. Garbage from a pass is
    collected before the next one starts, so peak memory is one pass's
    peak whatever the number of passes.
    """
    from perfbench import workloads

    walls = []
    started = time.perf_counter()
    timed = not warmup
    while True:
        if ledger is not None:
            ledger.mark()
        t0 = time.perf_counter()
        try:
            suite, stats = workloads.run_pass(workload, seed, probe)
        except Exception:  # a failing cell must not stop the report
            traceback.print_exc()
            book.fail_pass(phase)
            break
        took = time.perf_counter() - t0
        if ledger is not None:
            ledger.close()
        wall = took - probe.spent_s if probe is not None else took
        book.check_pass(suite, stats, phase, timed,
                        probe.scale if probe is not None else None)
        if on_pass is not None:
            on_pass(suite)
        del suite, stats
        gc.collect()
        if timed:
            walls.append(wall)
        timed = True
        if walls and time.perf_counter() - started + took > budget:
            break
    return walls


def role_child(args) -> int:
    _ensure_paths()
    from perfbench import speed, workloads

    if args.write_digests and args.seed != workloads.DEFAULT_SEED:
        raise BenchError("digests are pinned for the default seed only")
    pinned = None
    if args.seed == workloads.DEFAULT_SEED and not args.write_digests:
        with open(DIGESTS) as fh:
            pinned = json.load(fh).get(args.workload)
        if pinned is None:
            raise BenchError(f"no pinned digests for {args.workload}")
    book = CellBook(pinned, args.inject_fault)
    budget = args.seconds / 2.0 if args.trace else float(args.seconds)
    untraced = run_passes(args.workload, args.seed, budget, book,
                          "untraced", warmup=True, probe=speed.SpeedProbe())
    metrics = {}
    detail = {"provenance": provenance(), "untraced_pass_s": untraced,
              "sim_wall_ratio_unscaled": book.sim_wall_ratio(book.raw_walls)}
    if args.trace:
        traced, ledger_detail = traced_run(args, book, budget, untraced,
                                           metrics)
        detail["traced_pass_s"] = traced
        detail["ledger"] = ledger_detail
    else:
        metrics["sim_wall_ratio"] = (book.sim_wall_ratio(), "s/s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    detail.update(digests=book.digests, failures=book.failures,
                  cell_wall_s=dict(book.walls),
                  cell_wall_s_unscaled=dict(book.raw_walls))
    if args.write_digests:
        with open(DIGESTS) as fh:
            table = json.load(fh)
        table[args.workload] = dict(sorted(book.digests.items()))
        with open(DIGESTS, "w") as fh:
            json.dump(table, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"attempted": book.attempted, "failed": book.failed,
                      "metrics": metrics, "detail": detail}))
    return 0


def traced_run(args, book, budget, untraced, metrics):
    """Half the budget again, with the ledger installed; fills *metrics*."""
    from perfbench import ledger as ledger_mod
    from perfbench import workloads

    ledger = ledger_mod.Ledger()
    network = defaultdict(int)
    per_pass_counts = []
    totals = defaultdict(int)

    def on_result(result):
        net = result.hosts["server"].network
        network["delivered"] += net.packets_delivered
        network["blackholed"] += net.packets_blackholed

    def on_pass(suite):
        for summary in suite.values():
            server = summary.counters.get("server", {})
            for name in ("SynCacheEvictions", "SynCookiesRecv",
                         "AdmissionDrops", "PuzzlesVerified"):
                totals[name] += server.get(name, 0) or 0
            stats = summary.listener_stats
            totals["syns"] += stats.syns_received
            totals["established"] += stats.established_total()
            engine = summary.engine_stats
            totals["events"] += engine.get("events_processed", 0)
            totals["scheduled"] += engine.get("events_scheduled", 0)
            totals["cancelled"] += engine.get("events_cancelled", 0)
        per_pass_counts.append(
            {path: c[0] for path, c in ledger.entry_calls.items()})

    ledger.on_scenario_result = on_result
    ledger.install()
    try:
        traced = run_passes(args.workload, args.seed, budget, book,
                            "traced", ledger=ledger, on_pass=on_pass)
    finally:
        ledger.uninstall()

    passes = max(len(per_pass_counts), 1)
    traced_wall = sum(traced)
    # Counts must repeat exactly from pass to pass (same seed, same path).
    deltas = [{k: cur[k] - prev.get(k, 0) for k in cur}
              for prev, cur in zip([{}] + per_pass_counts, per_pass_counts)]
    if any(d != deltas[0] for d in deltas):
        book.fail("<traced>", ["entry-point call counts differ by pass"])

    def m(name, value, unit):
        metrics[name] = (value, unit)

    layer_self = 0.0
    for i, layer in enumerate(ledger.layers):
        m(f"{layer}.calls", ledger.calls[i] // passes, "count")
        m(f"{layer}.self_s", ledger.self_s[i] / passes, "s")
        m(f"{layer}.share",
          ledger.self_s[i] / traced_wall if traced_wall else 0.0, "ratio")
        layer_self += ledger.self_s[i]
    accounted = layer_self / traced_wall if traced_wall else 0.0
    if abs(1.0 - accounted) > ACCOUNTING_TOLERANCE:
        book.fail("<traced>", [f"layers account for {accounted:.4f} of "
                               "the traced wall"])

    def per_pass(value):
        return value / passes

    def ratio(num, den):
        return num / den if den else 0.0

    calls = ledger.calls_of
    m("sim.events", per_pass(totals["events"]), "count")
    m("sim.scheduled", per_pass(totals["scheduled"]), "count")
    m("sim.cancelled", per_pass(totals["cancelled"]), "count")
    m("sim.events_per_s",
      ratio(per_pass(totals["events"]), statistics.median(untraced))
      if untraced else 0.0, "1/s")
    m("net.packets_delivered", per_pass(network["delivered"]), "count")
    m("net.packets_blackholed", per_pass(network["blackholed"]), "count")
    flyweight = (calls("SynFastPath._deliver")
                 - calls("SynFastPath._materialize"))
    m("net.fastpath_share", ratio(flyweight, totals["syns"]), "ratio")
    m("tcp.listener.estab_per_syn",
      ratio(totals["established"], totals["syns"]), "ratio")
    m("tcp.syncache.evictions_per_insert",
      ratio(totals["SynCacheEvictions"], calls("SynCache.insert")), "ratio")
    m("tcp.syncookies.valid_ratio",
      ratio(totals["SynCookiesRecv"], calls("SynCookieCodec.decode")),
      "ratio")
    admits = calls("AdmissionControl.admit")
    m("tcp.overload.admit_ratio",
      ratio(admits - totals["AdmissionDrops"], admits), "ratio")
    m("puzzles.issued",
      per_pass(calls("JuelsBrainardScheme.issue_preimage")
               + calls("JuelsBrainardScheme.make_challenge")), "count")
    m("puzzles.verify_ok_ratio",
      ratio(totals["PuzzlesVerified"], calls("JuelsBrainardScheme.verify")),
      "ratio")
    m("obs.telemetry_calls",
      per_pass(sum(calls(p) for p in ledger_mod.TELEMETRY_ENTRY_POINTS)),
      "count")
    for label in workloads.CELL_LABELS:
        walls = book.walls.get(label)
        m(f"cell.{label}.wall_s", statistics.median(walls) if walls else 0.0,
          "s")
    m("trace.overhead",
      ratio(statistics.median(traced), statistics.median(untraced))
      if traced and untraced else 0.0, "ratio")
    m("trace.accounted", accounted, "ratio")
    m("cell_fail_ratio", ratio(book.failed, book.attempted), "ratio")

    detail = {
        "passes": len(traced),
        "traced_wall_s": traced_wall,
        "outside_s": ledger.self_s[ledger.outside],
        "layers": {layer: {"calls": ledger.calls[i],
                           "self_s": ledger.self_s[i],
                           "inclusive_s": ledger.inclusive[i]}
                   for i, layer in enumerate(ledger.layers)},
        "edges": ledger.edges(),
        "entry_calls": {k: v[0] for k, v in ledger.entry_calls.items()},
        "missing_entry_points": ledger.missing,
    }
    return traced, detail


# ----------------------------------------------------------------------
# Orchestration (the process the user starts)
# ----------------------------------------------------------------------
def _spawn_args(args, role):
    argv = [sys.executable, os.path.abspath(__file__), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.inject_fault:
        argv += ["--inject-fault", args.inject_fault]
    if args.write_digests:
        argv.append("--write-digests")
    return argv


def _probe_setup(args):
    """One fresh set-up process; returns its set-up time as measured and
    scaled to the reference host speed by the probes it ran."""
    from perfbench import speed

    started = time.perf_counter()
    proc = subprocess.Popen(_spawn_args(args, "probe"), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        words = proc.stdout.readline().split()
        elapsed = time.perf_counter() - started
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if len(words) != 3 or words[0] != "ready" or proc.returncode != 0:
        raise BenchError("set-up probe failed")
    before, after = float(words[1]), float(words[2])
    raw = elapsed - before - after
    return raw, raw * speed.REFERENCE_S / ((before + after) / 2.0)


def orchestrate(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: simulator sources not found under src/repro",
              file=sys.stderr)
        return 2
    subprocess.run(_spawn_args(args, "warm"), cwd=ROOT, check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    raw_setups, setups = zip(*(_probe_setup(args)
                               for _ in range(SETUP_PROBES)))
    proc = subprocess.run(_spawn_args(args, "child"), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = dict(child["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    detail = child["detail"]
    detail["setup_s_samples"] = setups
    detail["setup_s_unscaled"] = raw_setups
    correct = child["failed"] == 0
    result = {
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(
        OUT_DIR, f"{args.workload}-trace{args.trace}-seed{args.seed}.json")
    with open(record, "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, detail=detail),
                  fh, indent=2, sort_keys=True)
    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}",
              file=sys.stderr)
    for failure in detail["failures"]:
        print(f"FAILED {failure['cell']}: {'; '.join(failure['problems'])}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


def parse_args(argv=None):
    _ensure_paths()
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", metavar="LABEL", default=None,
                        help="alter one MIB counter of this cell")
    parser.add_argument("--write-digests", action="store_true",
                        help="re-pin this workload's digests (default seed)")
    parser.add_argument("--role", default="main",
                        choices=("main", "warm", "probe", "child"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.role == "warm":
            return role_warm()
        if args.role == "probe":
            return role_probe(args)
        if args.role == "child":
            return role_child(args)
        return orchestrate(args)
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
