"""Shared benchmark configuration.

Each benchmark regenerates one of the paper's tables or figures and prints
the corresponding rows (run with ``-s`` to see them inline; they are also
written under ``benchmarks/output/``). Scenario benches run at
``BENCH_TIME_SCALE`` of the paper's 600 s timeline — rates are
paper-identical, so shapes (who wins, by what factor) are preserved; see
DESIGN.md's scale-down convention.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments.scenario import ScenarioConfig

#: 0.05 → 30 s simulated scenarios (attack 6 s–24 s).
BENCH_TIME_SCALE = float(os.environ.get("REPRO_BENCH_TIME_SCALE", "0.05"))

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def bench_scenario_config(**overrides) -> ScenarioConfig:
    """The §6 scenario at benchmark scale."""
    defaults = dict(time_scale=BENCH_TIME_SCALE)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def emit(name: str, text: str) -> None:
    """Print a figure/table reproduction and persist it for EXPERIMENTS.md."""
    banner = f"\n=== {name} ===\n{text}\n"
    print(banner)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")


#: Manifests written this session, for the BENCH_session.json roll-up.
_MANIFESTS_WRITTEN = []


def record_manifest(name: str, result=None, extra=None,
                    runner_stats=None) -> pathlib.Path:
    """Persist a run manifest as ``benchmarks/output/BENCH_<name>.json``.

    Pass a :class:`~repro.experiments.summary.ScenarioSummary` as
    *result* to capture its counters, engine statistics and histograms;
    pass a :class:`~repro.runner.RunnerStats`
    as *runner_stats* to persist the sweep's perf trajectory (per-cell
    wall time, events/sec, sim_wall_ratio, cache hits); *extra* merges
    additional keys in.
    """
    from repro.obs.manifest import (
        runner_payload,
        summary_payload,
        write_manifest,
    )

    payload = summary_payload(result) if result is not None else {}
    if runner_stats is not None:
        payload["runner"] = runner_payload(runner_stats)
    if extra:
        payload.update(extra)
    payload["name"] = name
    payload["bench_time_scale"] = BENCH_TIME_SCALE
    payload.setdefault("perf", _perf_block(payload))
    path = write_manifest(OUTPUT_DIR / f"BENCH_{name}.json", payload)
    _MANIFESTS_WRITTEN.append(name)
    return path


def _perf_block(payload) -> dict:
    """The manifest's top-level perf figures (the bench trajectory).

    Prefers the sweep runner's aggregate accounting; falls back to the
    single run's engine statistics.
    """
    runner = payload.get("runner")
    if runner:
        return {
            "wall_seconds": runner.get("wall_seconds"),
            "events_per_second": runner.get("events_per_second"),
            "sim_wall_ratio": runner.get("sim_wall_ratio"),
            "cells_run": runner.get("cells_run"),
            "cache_hits": runner.get("cache_hits"),
        }
    engine = payload.get("engine")
    if engine:
        wall = engine.get("wall_seconds") or 0.0
        events = engine.get("events_processed") or 0
        return {
            "wall_seconds": wall,
            "events_per_second": (events / wall) if wall > 0 else 0.0,
            "sim_wall_ratio": engine.get("sim_wall_ratio", 0.0),
        }
    return {}


def pytest_sessionfinish(session, exitstatus):
    """Roll up which manifests this benchmark session produced."""
    if not _MANIFESTS_WRITTEN:
        return
    from repro.obs.manifest import write_manifest

    write_manifest(OUTPUT_DIR / "BENCH_session.json", {
        "name": "session",
        "exit_status": int(exitstatus),
        "manifests": sorted(_MANIFESTS_WRITTEN),
    })


@pytest.fixture(scope="session")
def output_dir() -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR
