"""Command-line interface: ``tcp-puzzles`` (or ``python -m repro``).

Subcommands mirror the paper's workflow:

* ``nash``     — compute the Nash difficulty from (w_av, α), §4.4 style;
* ``profile``  — print the Figure 3(a) / Table 1 hardware profiles;
* ``run``      — run one evaluation experiment and print its tables;
* ``sweep``    — run a parameter sweep through the parallel runner
  (``--jobs N`` for worker processes, ``--cache`` for the on-disk result
  cache, ``--resume`` to continue an interrupted sweep from its
  checkpoint, ``--live`` to keep an atomic JSON status file fresh,
  ``--quiet`` to silence the per-cell progress lines;
  see docs/performance.md);
* ``top``      — the live monitor: self-refreshing terminal rendering of
  the status file a ``sweep --live`` (or ``run --live``) keeps updating
  (``--once`` for a single plain render, e.g. in CI);
* ``chaos``    — run the fault-injection matrix (loss bursts, link
  flaps, option corruption, clock skew, memory pressure, secret
  rotation) with the runtime invariant checker armed, and print the
  resilience report (see docs/robustness.md);
* ``trace``    — run a small scenario with handshake tracepoints armed and
  print per-flow timelines plus the SNMP counter dump, or export the
  handshake spans as Chrome trace-event JSON (``--format=chrome``);
* ``bench-compare`` — diff two ``BENCH_*.json`` manifest directories
  (counters, events/s, latency quantiles) inside tolerance bands and
  exit non-zero on regression or when nothing was compared — the CI perf
  gate (``--prefix micro_`` gates the micro-benchmark manifests alone);
* ``perf``     — the performance-observability toolkit:
  ``perf micro`` runs the deterministic micro-benchmark registry and
  writes ``BENCH_micro_*.json`` manifests, and ``perf profile`` runs a
  flood scenario under :class:`~repro.obs.profile.Profiler` (per-layer
  self-time table, top functions, heap churn, optional tracemalloc/GC
  accounting, collapsed-stack flamegraph + Chrome trace export; see
  docs/performance.md).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Dict, List, Optional


def _make_monitor(args: argparse.Namespace, kind: str = "sweep"):
    """A SweepMonitor from the shared ``--live``/``--quiet`` flags.

    Always attached (the per-cell progress lines on stderr are the
    default, ``--quiet`` silences them); ``--live`` / ``--status-file``
    additionally write the atomic status document ``tcp-puzzles top``
    renders.
    """
    from repro.runner import DEFAULT_STATUS_PATH, SweepMonitor

    status_path = getattr(args, "status_file", None)
    if status_path is None and getattr(args, "live", False):
        status_path = DEFAULT_STATUS_PATH
    return SweepMonitor(status_path=status_path,
                        quiet=bool(getattr(args, "quiet", False)),
                        kind=kind)


def _make_runner(args: argparse.Namespace,
                 identity: Optional[str] = None,
                 monitor=None):
    """A SweepRunner from the shared ``--jobs``/``--cache`` flags.

    With ``--resume`` (and an *identity* hash for the invocation), the
    runner gets a crash-safe checkpoint under the cache directory and a
    result cache is attached implicitly — resumed values come from it.
    """
    from repro.runner import (ResultCache, RetryPolicy, SweepCheckpoint,
                              SweepRunner, checkpoint_path)

    resume = bool(getattr(args, "resume", False))
    cache = None
    if (getattr(args, "cache", False) or getattr(args, "cache_dir", None)
            or resume):
        cache = ResultCache(root=args.cache_dir) if args.cache_dir \
            else ResultCache()
    checkpoint = None
    if resume and identity is not None:
        checkpoint = SweepCheckpoint(
            checkpoint_path(identity, root=cache.root))
        if checkpoint.count:
            print(f"resuming: checkpoint lists {checkpoint.count} "
                  f"completed cells", file=sys.stderr)
    retry = None
    timeout = getattr(args, "cell_timeout", None)
    if timeout is not None:
        retry = RetryPolicy(cell_timeout=timeout)
    return SweepRunner(jobs=args.jobs, cache=cache, retry=retry,
                       checkpoint=checkpoint, monitor=monitor)


def _add_runner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes (default: $REPRO_JOBS or 1 "
                        "= serial)")
    parser.add_argument("--cache", action="store_true",
                        help="cache cell results on disk "
                        "($REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--cache-dir", metavar="PATH", default=None,
                        help="cache directory (implies --cache)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="abandon and retry any cell running longer "
                        "than this (parallel runs only)")


def _add_monitor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="suppress the per-cell progress lines on "
                        "stderr")
    parser.add_argument("--live", action="store_true",
                        help="write an atomic JSON status file for "
                        "`tcp-puzzles top` (default path: "
                        "benchmarks/output/sweep_status.json)")
    parser.add_argument("--status-file", metavar="PATH", default=None,
                        help="status file path (implies --live)")


def _cmd_nash(args: argparse.Namespace) -> int:
    from repro.core.theorem import equilibrium_difficulty, nash_difficulty

    target = equilibrium_difficulty(args.w_av, args.alpha)
    params = nash_difficulty(args.w_av, args.alpha, k=args.k)
    print(f"w_av = {args.w_av:.0f} hashes, alpha = {args.alpha}")
    print(f"continuous optimum  l* = w_av/(alpha+1) = {target:.1f} hashes")
    print(f"puzzle parameters   (k*, m*) = ({params.k}, {params.m})  "
          f"[l(p*) = {params.expected_hashes:.0f} expected hashes]")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.experiments.exp6_iot import iot_profile_table
    from repro.experiments.profiling_fig3 import client_profile_table
    from repro.experiments.report import render_table

    rows, w_av = client_profile_table()
    print("Figure 3(a): client CPU profiles (400 ms budget)")
    print(render_table(
        ["cpu", "description", "hash rate (/s)", "hashes in 400 ms"],
        [(r.name, r.description, r.hash_rate, r.hashes_in_budget)
         for r in rows]))
    print(f"w_av = {w_av:.0f}\n")
    print("Table 1: IoT device profiles")
    print(render_table(
        ["device", "hash rate (/s)", "hashes in 400 ms (paper)",
         "Nash solves/s"],
        [(r.device, r.average_hashing_rate, r.paper_hashes_in_400ms,
          r.nash_solves_per_second) for r in iot_profile_table()]))
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    from repro.core.analysis import botnet_cost_table
    from repro.experiments.report import render_table
    from repro.puzzles.params import PuzzleParams

    params = PuzzleParams(k=args.k, m=args.m)
    rows = botnet_cost_table(params, args.unprotected_rate)
    print(f"attack economics at (k={args.k}, m={args.m}) "
          f"[l(p) = {params.expected_hashes:.0f} hashes]")
    print(render_table(
        ["device", "solves/s", "bots for 5000 cps",
         "botnet amplification"],
        [(r.device, r.solves_per_second, r.bots_for_5000_cps,
          r.amplification) for r in rows.values()]))
    print("\n'botnet amplification' = how many times more machines the "
          "attacker\nneeds vs. an unprotected server "
          f"(at {args.unprotected_rate:.0f} cps/bot unprotected).")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.validation import run_validation

    card = run_validation(progress=lambda msg: print(f"... {msg}",
                                                     file=sys.stderr))
    print(card.render())
    return 0 if card.all_passed else 1


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table

    runner = _make_runner(args, monitor=_make_monitor(args, kind="run"))
    if args.experiment == "syn-flood":
        from repro.experiments.exp2_floods import run_syn_flood_suite

        suite = run_syn_flood_suite(runner=runner)
        print(render_table(
            ["defense", "client Mbps (pre)", "client Mbps (attack)",
             "completion %"],
            [(label,
              r.client_throughput_before_attack().mean,
              r.client_throughput_during_attack().mean,
              r.client_completion_percent())
             for label, r in suite.items()]))
    elif args.experiment == "connection-flood":
        from repro.experiments.exp2_floods import \
            run_connection_flood_suite
        from repro.experiments.figures import bar_chart, line_chart

        suite = run_connection_flood_suite(runner=runner)
        print(render_table(
            ["defense", "client Mbps (pre)", "client Mbps (attack)",
             "attacker cps", "completion %"],
            [(label,
              r.client_throughput_before_attack().mean,
              r.client_throughput_during_attack().mean,
              r.attacker_established_rate(),
              r.client_completion_percent())
             for label, r in suite.items()]))
        for label, result in suite.items():
            times, mbps = result.client_throughput.rx_mbps(
                result.config.duration)
            start, end = result.attack_window()
            print()
            print(line_chart(times, mbps, title=f"client throughput — "
                             f"{label}", y_label="Mbps",
                             shade_from=start, shade_to=end))
        print("\nsteady-state attacker rate (Figure 11):")
        print(bar_chart(
            list(suite),
            [r.attacker_steady_state_rate() for r in suite.values()],
            unit=" cps"))
    elif args.experiment == "adoption":
        from repro.experiments.exp5_adoption import adoption_study

        outcomes = adoption_study(runner=runner)
        print(render_table(
            ["scenario", "mean completion % during attack"],
            [(label, o.mean_completion_percent)
             for label, o in outcomes.items()]))
    elif args.experiment == "connection-time":
        from repro.experiments.exp1_connection_time import \
            connection_time_cdf_grid
        from repro.metrics.summary import quantile

        grid = connection_time_cdf_grid(samples=args.samples)
        print(render_table(
            ["k", "m", "mean (ms)", "median (ms)", "p95 (ms)"],
            [(k, m, 1e3 * r.summary.mean, 1e3 * r.summary.median,
              1e3 * quantile(r.times, 0.95))
             for (k, m), r in sorted(grid.items())]))
    else:  # pragma: no cover - argparse restricts choices
        print(f"unknown experiment {args.experiment}", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table
    from repro.experiments.scenario import ScenarioConfig
    from repro.runner import stable_hash

    # The checkpoint identity covers everything that shapes the cell
    # list, so `--resume` can never replay a different sweep's file.
    identity = stable_hash((
        "sweep", args.sweep, args.seed, args.time_scale,
        tuple(args.k_values or ()), tuple(args.m_values or ()),
        args.replicates))
    runner = _make_runner(args, identity=identity,
                          monitor=_make_monitor(args, kind="sweep"))
    base = ScenarioConfig(seed=args.seed, time_scale=args.time_scale)

    if args.sweep == "difficulty":
        from repro.experiments.exp3_nash import (
            difficulty_sweep_report,
            stability_ranking,
        )

        k_values = args.k_values or (1, 2, 3, 4)
        m_values = args.m_values or (12, 15, 16, 17, 18, 20)
        grid, stats = difficulty_sweep_report(k_values, m_values, base,
                                              runner)
        print(render_table(
            ["k", "m", "client Mbps (mean)", "Mbps (std)", "attacker cps",
             "completion %"],
            [(k, m, cell.throughput.mean, cell.throughput.std,
              cell.attacker_steady_rate, cell.client_completion_percent)
             for (k, m), cell in sorted(grid.items())]))
        ranking = stability_ranking(grid)
        if ranking:
            (k, m), score = ranking[0]
            print(f"\nmost stable cell: (k={k}, m={m}) "
                  f"[mean - std = {score:.3f} Mbps]")
    elif args.sweep == "botnet-rate":
        from repro.experiments.exp4_botnet import per_node_rate_sweep

        points = per_node_rate_sweep(base=base, runner=runner)
        stats = None
        print(render_table(
            ["per-node pps", "measured pps", "effective cps",
             "steady cps"],
            [(p.configured_rate_per_node, p.measured_attack_rate,
              p.completion_rate, p.completion_rate_steady)
             for p in points]))
    elif args.sweep == "botnet-size":
        from repro.experiments.exp4_botnet import botnet_size_sweep

        points = botnet_size_sweep(base=base, runner=runner)
        stats = None
        print(render_table(
            ["bots", "measured pps", "effective cps", "steady cps"],
            [(p.n_bots, p.measured_attack_rate, p.completion_rate,
              p.completion_rate_steady) for p in points]))
    elif args.sweep == "adoption":
        from repro.experiments.exp5_adoption import adoption_study

        outcomes = adoption_study(base, runner=runner)
        stats = None
        print(render_table(
            ["scenario", "mean completion % during attack"],
            [(label, o.mean_completion_percent)
             for label, o in outcomes.items()]))
    elif args.sweep == "iot":
        from repro.experiments.exp6_iot import iot_seed_sweep

        seeds = tuple(range(1, args.replicates + 1))
        summaries = iot_seed_sweep(seeds=seeds, base=base, runner=runner)
        stats = None
        print(render_table(
            ["seed", "attacker steady cps", "completion %"],
            [(seed, s.attacker_steady_state_rate(),
              s.client_completion_percent())
             for seed, s in zip(seeds, summaries)]))
    else:  # pragma: no cover - argparse restricts choices
        print(f"unknown sweep {args.sweep}", file=sys.stderr)
        return 2

    if stats is not None:
        print(f"\nrunner: {stats.render()}")
    if runner.cache is not None:
        print(f"cache: {runner.cache.stats.as_payload()} "
              f"at {runner.cache.root}")
    if runner.checkpoint is not None:
        print(f"checkpoint: {runner.checkpoint.count} cells recorded at "
              f"{runner.checkpoint.path}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import (render_overload_report,
                                    render_resilience, resilience_report,
                                    run_chaos_summary,
                                    sustained_overload_verdict)
    from repro.faults.invariants import InvariantViolation

    build = _build_chaos_matrix(args)
    if build is None:
        return 2
    labels, specs, fingerprints = build

    # Each row maps through the runner on its own, so one failing cell
    # is marked FAILED and the rest of the matrix still runs — the exit
    # code, not a truncated report, carries the failure.
    runner = _make_runner(args)
    values = []
    failures = {}
    stats = None
    for label, spec in zip(labels, specs):
        try:
            report = runner.map(run_chaos_summary, [spec],
                                labels=[label])
        except InvariantViolation as violation:
            print(f"cell {label!r} FAILED — INVARIANT VIOLATION\n"
                  f"{violation}", file=sys.stderr)
            failures[label] = str(violation)
            values.append(None)
            continue
        except Exception as error:
            print(f"cell {label!r} FAILED — "
                  f"{type(error).__name__}: {error}", file=sys.stderr)
            failures[label] = f"{type(error).__name__}: {error}"
            values.append(None)
            continue
        values.append(report.values[0])
        if stats is None:
            stats = report.stats
        else:
            stats.absorb(report.stats)

    ran = [(label, summary) for label, summary
           in zip(labels, values) if summary is not None]
    mode = "sustained-overload" if args.overload else "fault"
    print(f"chaos matrix ({mode}): {len(labels)} cells, "
          f"defense={'syncache' if args.overload else args.defense}, "
          f"attack={'syn' if args.overload else args.attack}, "
          f"seed={args.seed}")

    verdicts = {}
    if args.overload:
        verdicts = {label: sustained_overload_verdict(summary)
                    for label, summary in ran}
        if ran:
            print(render_overload_report(
                [label for label, _ in ran], list(verdicts.values())))
        rows = []
    else:
        rows = resilience_report([label for label, _ in ran],
                                 [summary for _, summary in ran])
        if rows:
            print(render_resilience(rows))

    checks = sum(summary.invariant_checks for _, summary in ran)
    print(f"\ninvariants: {checks} checker ticks across the matrix, "
          f"zero violations in completed cells")
    for label in failures:
        print(f"cell {label!r}: FAILED", file=sys.stderr)
    if stats is not None:
        print(f"runner: {stats.render()}")

    if args.output:
        import pathlib

        from repro.obs.manifest import runner_payload, write_manifest

        payload = {
            "schedule_fingerprints": fingerprints,
            "resilience": rows,
            "failed": sorted(failures),
        }
        if args.overload:
            payload["overload_verdicts"] = verdicts
            payload["overload"] = {label: summary.overload
                                   for label, summary in ran}
        if stats is not None:
            payload["runner"] = runner_payload(stats)
        path = write_manifest(
            pathlib.Path(args.output) / "BENCH_chaos.json", payload)
        print(f"wrote {path}")

    failed_verdicts = [label for label, verdict in verdicts.items()
                       if not verdict["ok"]]
    for label in failed_verdicts:
        print(f"cell {label!r}: verdict FAIL", file=sys.stderr)
    return 1 if failures or failed_verdicts else 0


def _build_chaos_matrix(args: argparse.Namespace):
    """Labels, specs, and schedule fingerprints for the chaos command.

    Returns ``None`` (after printing to stderr) on a bad fault subset.
    """
    from repro.experiments.scenario import ScenarioConfig
    from repro.faults.chaos import (ChaosSpec, default_fault_matrix,
                                    overload_matrix)
    from repro.tcp.constants import DefenseMode

    config = ScenarioConfig(
        seed=args.seed,
        time_scale=args.time_scale,
        n_clients=args.clients,
        n_attackers=args.attackers,
        attack_style=("syn" if args.attack == "none" else args.attack),
        attack_enabled=(args.attack != "none"),
        defense=DefenseMode(args.defense),
        always_challenge=args.always_challenge)

    if args.overload:
        matrix = overload_matrix(
            config, invariant_interval=args.invariant_interval)
        labels = list(matrix)
        specs = [matrix[label] for label in labels]
        fingerprints = {label: matrix[label].schedule.fingerprint()
                        for label in labels}
        return labels, specs, fingerprints

    schedules = default_fault_matrix(config)
    if args.faults:
        unknown = [name for name in args.faults if name not in schedules]
        if unknown:
            print(f"unknown fault class(es): {', '.join(unknown)} "
                  f"(choose from {', '.join(schedules)})",
                  file=sys.stderr)
            return None
        # The baseline always runs — degradation is measured against it.
        schedules = {label: schedule
                     for label, schedule in schedules.items()
                     if label == "baseline" or label in args.faults}
    labels = list(schedules)
    specs = [ChaosSpec(config, schedules[label],
                       invariant_interval=args.invariant_interval)
             for label in labels]
    fingerprints = {label: schedules[label].fingerprint()
                    for label in labels}
    return labels, specs, fingerprints


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.runner import DEFAULT_STATUS_PATH, StatusFile, \
        render_status

    path = args.status_file or DEFAULT_STATUS_PATH
    if args.once:
        payload = StatusFile.read(path)
        if payload is None:
            print(f"no status file at {path} — start a sweep with "
                  f"`tcp-puzzles sweep ... --live`", file=sys.stderr)
            return 1
        print(render_status(payload))
        return 0
    try:
        while True:
            payload = StatusFile.read(path)
            # Clear + home, then redraw — a self-refreshing terminal view.
            print("\x1b[2J\x1b[H", end="")
            if payload is None:
                print(f"waiting for {path} ...")
            else:
                print(render_status(payload), flush=True)
                if payload.get("state") == "completed":
                    return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.scenario import Scenario, ScenarioConfig
    from repro.obs import (TelemetrySpec, build_spans, drop_attribution,
                           established_total)
    from repro.obs.export import write_jsonl
    from repro.obs.profile import Profiler
    from repro.obs.spans import chrome_trace_json
    from repro.tcp.constants import DefenseMode

    telemetry = None
    if args.telemetry:
        telemetry = TelemetrySpec(cadence=args.cadence)
    config = ScenarioConfig(
        seed=args.seed,
        time_scale=args.duration / 600.0,
        n_clients=args.clients,
        n_attackers=args.attackers,
        attack_style=("syn" if args.attack == "none" else args.attack),
        attack_enabled=(args.attack != "none"),
        defense=DefenseMode(args.defense),
        tracing=True,
        trace_capacity=args.capacity,
        telemetry=telemetry)
    profiler = Profiler() if args.profile else None
    with profiler or contextlib.nullcontext():
        result = Scenario(config).run()
    obs = result.obs
    tracer = obs.tracer
    series = result.sampler.as_dict() if result.sampler is not None \
        else None

    if args.format == "chrome":
        # One span per traced handshake (plus telemetry counter tracks
        # when --telemetry is on), as a Chrome trace-event JSON document
        # (load into Perfetto / chrome://tracing). Nothing else is
        # printed so stdout stays a valid JSON document.
        document = chrome_trace_json(build_spans(tracer), series=series)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(document + "\n")
            print(f"wrote Chrome trace for {len(tracer.timelines())} "
                  f"spans to {args.output}", file=sys.stderr)
        else:
            print(document)
        return 0

    timelines = tracer.timelines()
    print(f"traced {tracer.emitted} handshake events across "
          f"{len(timelines)} flows"
          + (f" ({tracer.dropped} fell off the ring)"
             if tracer.dropped else ""))
    print()
    print(tracer.render(max_flows=args.flows))
    print()
    print(obs.counters.render())

    server = obs.counters.scope("server")
    drops = drop_attribution(server)
    drop_text = ", ".join(f"{name}={count}"
                          for name, count in drops.items()) or "none"
    print()
    print(f"server handshakes: {established_total(server)} established; "
          f"drops by cause: {drop_text}")

    if len(obs.hist):
        print()
        print("latency histograms:")
        print(obs.hist.render())

    if series:
        print()
        print(f"telemetry: {len(series)} series, "
              f"{result.sampler.samples_taken} samples at "
              f"{config.telemetry.cadence:g}s cadence "
              f"({', '.join(sorted(series))})")

    stats = result.engine.stats()
    print(f"engine: {stats['events_processed']} events in "
          f"{stats['wall_seconds']:.3f}s wall "
          f"({stats['sim_wall_ratio']:.0f}x real time), "
          f"{stats['compactions']} heap compactions")
    if profiler is not None:
        print()
        print(profiler.render_layers())

    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            lines = write_jsonl(fh, registry=obs.counters, tracer=tracer,
                                engine=result.engine,
                                profiler=profiler,
                                hists=obs.hist,
                                spans=build_spans(tracer),
                                series=series)
        print(f"\nwrote {lines} JSON lines to {args.jsonl}")
    return 0


def _cmd_perf_micro(args: argparse.Namespace) -> int:
    from repro.obs.microbench import (REGISTRY, render_results, run_micro,
                                      self_check, write_micro_manifests)

    if args.list:
        for name in sorted(REGISTRY):
            bench = REGISTRY[name]
            print(f"{name:>16s}  {bench.default_iterations:>9d} iters  "
                  f"{bench.description}")
        return 0
    names = args.benchmarks or None
    if names:
        unknown = [name for name in names if name not in REGISTRY]
        if unknown:
            print(f"unknown micro-benchmark(s): {', '.join(unknown)} "
                  f"(choose from {', '.join(sorted(REGISTRY))})",
                  file=sys.stderr)
            return 2
    results = run_micro(names, repeats=args.repeats, scale=args.scale)
    for result in results:
        self_check(result)
    print(render_results(results))
    if args.output:
        paths = write_micro_manifests(results, args.output)
        print(f"wrote {len(paths)} manifest(s) to {args.output}")
    return 0


@contextlib.contextmanager
def _memory_accounting(report: Dict[str, Dict[str, float]]):
    """Account allocations (tracemalloc) and GC pauses around a block
    into *report*; both hooks are removed however the block ends."""
    import gc
    import time
    import tracemalloc

    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    tracemalloc.reset_peak()
    gc_stats = {"collections": 0, "pause_seconds": 0.0}
    pause_started = [0.0]

    def hook(phase: str, info: dict) -> None:
        if phase == "start":
            pause_started[0] = time.perf_counter()
        else:
            gc_stats["collections"] += 1
            gc_stats["pause_seconds"] += \
                time.perf_counter() - pause_started[0]

    gc.callbacks.append(hook)
    try:
        yield
    finally:
        gc.callbacks.remove(hook)
        current, peak = tracemalloc.get_traced_memory()
        if started_here:
            tracemalloc.stop()
        report["memory"] = {"current_bytes": float(current),
                            "peak_bytes": float(peak)}
        report["gc"] = gc_stats


def _cmd_perf_profile(args: argparse.Namespace) -> int:
    from repro.experiments.scenario import Scenario, ScenarioConfig
    from repro.obs.profile import Profiler, heap_churn, render_heap_churn
    from repro.tcp.constants import DefenseMode

    config = ScenarioConfig(
        seed=args.seed,
        time_scale=args.time_scale,
        n_clients=args.clients,
        n_attackers=args.attackers,
        attack_style=("syn" if args.attack == "none" else args.attack),
        attack_enabled=(args.attack != "none"),
        defense=DefenseMode(args.defense),
        tracing=bool(args.chrome))
    memory: Dict[str, Dict[str, float]] = {}
    bracket = (_memory_accounting(memory) if args.memory
               else contextlib.nullcontext())
    with bracket, Profiler() as profiler:
        result = Scenario(config).run()

    stats = result.engine.stats()
    print(f"profiled {args.attack} flood, defense={args.defense}: "
          f"{stats['events_processed']:,.0f} events in "
          f"{profiler.wall_seconds:.3f}s profiled wall")
    print()
    print("self time by layer:")
    print(profiler.render_layers())
    print()
    print(f"top functions by self time (top {args.top}):")
    print(profiler.render_functions(top=args.top))
    print()
    churn = heap_churn(result.engine)
    print(render_heap_churn(churn))
    if memory:
        print(f"memory: {memory['memory']['current_bytes'] / 1024.0:,.1f} "
              f"KiB live, {memory['memory']['peak_bytes'] / 1024.0:,.1f} "
              f"KiB peak (tracemalloc)")
        print(f"gc: {memory['gc']['collections']} collections, "
              f"{memory['gc']['pause_seconds'] * 1e3:.2f} ms total pause")

    if args.flame:
        lines = profiler.write_flamegraph(args.flame)
        print(f"wrote {lines} collapsed-stack line(s) to {args.flame} "
              f"(speedscope / flamegraph.pl loadable)")
    if args.chrome:
        from repro.obs import build_spans
        from repro.obs.spans import chrome_trace_json

        document = chrome_trace_json(build_spans(result.obs.tracer))
        with open(args.chrome, "w") as fh:
            fh.write(document + "\n")
        print(f"wrote Chrome trace for "
              f"{len(result.obs.tracer.timelines())} spans to "
              f"{args.chrome}")
    if args.output:
        import pathlib

        from repro.obs.manifest import hub_payload, write_manifest

        payload = hub_payload(result.obs, engine=result.engine)
        payload["name"] = f"profile_{args.attack}_{args.defense}"
        payload["profile"] = {**profiler.as_payload(),
                              "heap_churn": churn, **memory}
        path = write_manifest(
            pathlib.Path(args.output)
            / f"BENCH_{payload['name']}.json", payload)
        print(f"wrote {path}")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.obs.benchcmp import Tolerance, compare_dirs

    tolerance = Tolerance(counters=args.counter_tolerance,
                          perf=args.perf_tolerance,
                          quantile=args.quantile_tolerance)
    report = compare_dirs(args.baseline, args.current, tolerance,
                          prefix=args.prefix)
    print(report.render())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcp-puzzles",
        description="TCP client puzzles (DSN 2019) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    nash = sub.add_parser("nash", help="compute the Nash puzzle difficulty")
    nash.add_argument("--w-av", type=float, default=140630.0,
                      help="average client hash budget per request")
    nash.add_argument("--alpha", type=float, default=1.1,
                      help="server service parameter mu/N")
    nash.add_argument("-k", type=int, default=2,
                      help="number of sub-puzzle solutions")
    nash.set_defaults(func=_cmd_nash)

    profile = sub.add_parser("profile",
                             help="print hardware profiles (Fig 3a, Tab 1)")
    profile.set_defaults(func=_cmd_profile)

    cost = sub.add_parser(
        "cost", help="attack economics at a given difficulty (§6.4/§6.6)")
    cost.add_argument("-k", type=int, default=2)
    cost.add_argument("-m", type=int, default=17)
    cost.add_argument("--unprotected-rate", type=float, default=500.0,
                      help="per-bot effective cps against a bare server")
    cost.set_defaults(func=_cmd_cost)

    validate = sub.add_parser(
        "validate",
        help="machine-check every paper claim (the reproduction gate)")
    validate.set_defaults(func=_cmd_validate)

    run = sub.add_parser("run", help="run an evaluation experiment")
    run.add_argument("experiment",
                     choices=["syn-flood", "connection-flood", "adoption",
                              "connection-time"])
    run.add_argument("--samples", type=int, default=25,
                     help="samples per cell (connection-time)")
    _add_runner_flags(run)
    _add_monitor_flags(run)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep",
        help="run a parameter sweep through the parallel runner")
    sweep.add_argument("sweep",
                       choices=["difficulty", "botnet-rate", "botnet-size",
                                "adoption", "iot"])
    sweep.add_argument("--time-scale", type=float, default=0.1,
                       help="timeline scale factor (1.0 = the paper's "
                       "600 s)")
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--k-values", type=int, nargs="+", default=None,
                       help="k grid for the difficulty sweep")
    sweep.add_argument("--m-values", type=int, nargs="+", default=None,
                       help="m grid for the difficulty sweep")
    sweep.add_argument("--replicates", type=int, default=3,
                       help="seed replicates (iot sweep)")
    sweep.add_argument("--resume", action="store_true",
                       help="resume an interrupted sweep from its "
                       "checkpoint (implies --cache); completed cells "
                       "replay from the result cache")
    _add_runner_flags(sweep)
    _add_monitor_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    top = sub.add_parser(
        "top",
        help="live monitor: render the status file a `sweep --live` "
        "run keeps updating")
    top.add_argument("--status-file", metavar="PATH", default=None,
                     help="status file to watch (default: "
                     "benchmarks/output/sweep_status.json)")
    top.add_argument("--once", action="store_true",
                     help="render the current status once (plain, no "
                     "screen clearing) and exit")
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh interval in seconds (default 1.0)")
    top.set_defaults(func=_cmd_top)

    chaos = sub.add_parser(
        "chaos",
        help="run the fault-injection matrix with invariant checking "
        "and print a resilience report")
    chaos.add_argument("--faults", nargs="+", default=None,
                       metavar="CLASS",
                       help="subset of fault classes to run (default: "
                       "all); the baseline always runs")
    chaos.add_argument("--defense", default="puzzles",
                       choices=["none", "cookies", "syncache", "puzzles"])
    chaos.add_argument("--attack", default="connect",
                       choices=["none", "syn", "connect", "mixed"])
    chaos.add_argument("--clients", type=int, default=6)
    chaos.add_argument("--attackers", type=int, default=4)
    chaos.add_argument("--time-scale", type=float, default=0.05,
                       help="timeline scale factor (default 0.05 = 30 s)")
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--invariant-interval", type=float, default=0.25,
                       help="sim-seconds between invariant checks "
                       "(0 disables the checker)")
    chaos.add_argument("--always-challenge", action="store_true",
                       default=True,
                       help="challenge every SYN so puzzle options ride "
                       "every handshake (default on; "
                       "--no-always-challenge for opportunistic mode)")
    chaos.add_argument("--no-always-challenge", action="store_false",
                       dest="always_challenge")
    chaos.add_argument("--overload", action="store_true",
                       help="run the sustained-overload matrix instead: "
                       "a 10x-capacity SYN flood against the full "
                       "graceful-degradation ladder, one cell per "
                       "syncache overflow policy, with pass/fail "
                       "verdicts (bounded memory, bounded benign p99, "
                       "full watchdog recovery)")
    chaos.add_argument("--output", "-o", metavar="DIR", default=None,
                       help="also write a BENCH_chaos.json manifest "
                       "under DIR")
    _add_runner_flags(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    trace = sub.add_parser(
        "trace",
        help="trace handshakes through a small scenario run")
    trace.add_argument("--defense", default="puzzles",
                       choices=["none", "cookies", "syncache", "puzzles"])
    trace.add_argument("--attack", default="syn",
                       choices=["none", "syn", "connect", "mixed"])
    trace.add_argument("--duration", type=float, default=20.0,
                       help="run length in seconds (attack spans the "
                       "middle 60%%)")
    trace.add_argument("--clients", type=int, default=4)
    trace.add_argument("--attackers", type=int, default=2)
    trace.add_argument("--flows", type=int, default=8,
                       help="max per-flow timelines to print")
    trace.add_argument("--capacity", type=int, default=65536,
                       help="trace ring buffer capacity")
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--profile", action="store_true",
                       help="profile the event loop while tracing")
    trace.add_argument("--telemetry", action="store_true",
                       help="attach the sim-time telemetry sampler; "
                       "chrome exports gain counter tracks, JSONL gains "
                       "type=series lines")
    trace.add_argument("--cadence", type=float, default=0.5,
                       help="telemetry sampling cadence in sim-seconds "
                       "(default 0.5)")
    trace.add_argument("--format", default="text",
                       choices=["text", "chrome"],
                       help="text timelines, or Chrome trace-event JSON "
                       "(one span per handshake; open in Perfetto)")
    trace.add_argument("--output", "-o", metavar="PATH", default=None,
                       help="write the chrome trace to PATH instead of "
                       "stdout")
    trace.add_argument("--jsonl", metavar="PATH",
                       help="also write counters+trace+spans+histograms "
                       "as JSON lines")
    trace.set_defaults(func=_cmd_trace)

    perf = sub.add_parser(
        "perf",
        help="performance observability: micro-benchmarks, attribution "
        "profiling, flamegraphs")
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    micro = perf_sub.add_parser(
        "micro",
        help="run the deterministic micro-benchmark registry and write "
        "BENCH_micro_*.json manifests")
    micro.add_argument("benchmarks", nargs="*", metavar="NAME",
                       help="subset of registered benchmarks "
                       "(default: all; see --list)")
    micro.add_argument("--list", action="store_true",
                       help="list registered micro-benchmarks and exit")
    micro.add_argument("--repeats", type=int, default=3,
                       help="timed repeats per benchmark; the best "
                       "(minimum) wall time is reported (default 3)")
    micro.add_argument("--scale", type=float, default=1.0,
                       help="iteration-count multiplier (default 1.0; "
                       "use e.g. 0.05 for a smoke run)")
    micro.add_argument("--output", "-o", metavar="DIR", default=None,
                       help="write BENCH_micro_<name>.json manifests "
                       "under DIR")
    micro.set_defaults(func=_cmd_perf_micro)

    pprof = perf_sub.add_parser(
        "profile",
        help="run a flood scenario under cProfile (per-layer self-time "
        "table, top functions, heap churn, flamegraph export)")
    pprof.add_argument("--defense", default="puzzles",
                       choices=["none", "cookies", "syncache", "puzzles"])
    pprof.add_argument("--attack", default="syn",
                       choices=["none", "syn", "connect", "mixed"],
                       help="attack style (default: the fig7 SYN flood)")
    pprof.add_argument("--time-scale", type=float, default=0.05,
                       help="timeline scale factor (default 0.05 = 30 s)")
    pprof.add_argument("--clients", type=int, default=15)
    pprof.add_argument("--attackers", type=int, default=10)
    pprof.add_argument("--seed", type=int, default=1)
    pprof.add_argument("--top", type=int, default=15,
                       help="functions to print (default 15)")
    pprof.add_argument("--memory", action="store_true",
                       help="also account allocations (tracemalloc) and "
                       "GC pauses around the run")
    pprof.add_argument("--flame", metavar="PATH", default=None,
                       help="write a collapsed-stack flamegraph "
                       "(speedscope / flamegraph.pl loadable)")
    pprof.add_argument("--chrome", metavar="PATH", default=None,
                       help="also write handshake spans as Chrome "
                       "trace-event JSON (enables tracing)")
    pprof.add_argument("--output", "-o", metavar="DIR", default=None,
                       help="also write a BENCH_profile_*.json manifest "
                       "under DIR")
    pprof.set_defaults(func=_cmd_perf_profile)

    bench = sub.add_parser(
        "bench-compare",
        help="diff two BENCH_*.json manifest directories; exit non-zero "
        "on regression or when the two share no manifest")
    bench.add_argument("baseline", help="baseline manifest directory")
    bench.add_argument("current", help="current manifest directory")
    bench.add_argument("--counter-tolerance", type=float, default=0.0,
                       help="relative drift allowed on SNMP counters and "
                       "histogram sample counts (default: exact)")
    bench.add_argument("--perf-tolerance", type=float, default=0.30,
                       help="relative wall-clock / events-per-second "
                       "drift allowed (default: 0.30)")
    bench.add_argument("--quantile-tolerance", type=float, default=0.25,
                       help="relative latency-quantile increase allowed "
                       "(default: 0.25)")
    bench.add_argument("--prefix", default=None, metavar="PREFIX",
                       help="compare only BENCH_<PREFIX>*.json manifests "
                       "(e.g. micro_ for the micro-benchmarks)")
    bench.set_defaults(func=_cmd_bench_compare)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
