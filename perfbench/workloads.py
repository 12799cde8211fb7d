"""The benchmark's workloads, driven through the public suite and
scenario entry points of :mod:`repro.experiments`.

The simulated traffic is open loop with fixed sim-time rates (10 bots at
500 attempts/s, 15 benign clients at 20 requests/s); the program runs it
as a batch, one cell after another, in one process. Each pass runs every
cell of the workload once through a fresh ``SweepRunner(jobs=1)`` with
no result cache, so ``$REPRO_JOBS`` is ignored and no cell is ever
served from disk.

* ``syn_flood`` — the Figure 7 suite (four defenses, spoofed SYNs,
  telemetry off). Nearly every packet takes the flyweight SYN/reply fast
  paths into ``ListenSocket.handle_syn`` and puzzle/cookie issue.
* ``conn_flood`` — the Figure 8 suite (three defenses, handshake-
  completing bots from real addresses). The fast paths are bypassed:
  every packet crosses ``Network.send``/``_deliver``, the TCP stack,
  ``handle_ack``, cookie decode and puzzle verify, and the accept queue
  and app server run. Timer-heavy.
* ``overload_ladder`` — the three ``overload_matrix`` cells (syncache
  eviction policies under a 10x SYN flood) run as plain scenarios, with
  streaming telemetry and per-source attribution on. Admission control,
  the budgeted syncache, the cookie fallback, the watchdog and the
  telemetry sampler do all of their work here and none in the others.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Fraction of the paper's 600 s timeline each cell simulates (6 s, the
#: attack from 1.2 s to 4.8 s). Short cells give each run many passes,
#: so per-cell medians ride out brief CPU speed swings on shared hosts.
TIME_SCALE = 0.01

#: The seed whose model digests are pinned in ``digests.json``.
DEFAULT_SEED = 1

WORKLOADS = ("syn_flood", "conn_flood", "overload_ladder")

#: Every cell label, across workloads (per-cell metrics use them all).
CELL_LABELS = ("nodefense", "cookies", "challenges-m8", "challenges-m17",
               "overload-oldest", "overload-random", "overload-reject")


def base_config(workload: str, seed: int):
    from repro.experiments import ScenarioConfig

    if workload == "overload_ladder":
        from repro.obs import TelemetrySpec

        return ScenarioConfig(time_scale=TIME_SCALE, seed=seed,
                              telemetry=TelemetrySpec(attribution=True))
    return ScenarioConfig(time_scale=TIME_SCALE, seed=seed)


def first_cell_config(workload: str, seed: int):
    """The config of the workload's first cell (what set-up builds)."""
    base = base_config(workload, seed)
    if workload == "overload_ladder":
        from repro.faults.chaos import overload_matrix

        return next(iter(overload_matrix(base).values())).config
    from repro.experiments.exp2_floods import NODEFENSE, FloodExperiment

    style = "syn" if workload == "syn_flood" else "connect"
    return FloodExperiment(defense=NODEFENSE, attack_style=style,
                           base=base).config()


def run_pass(workload: str, seed: int, monitor=None
             ) -> Tuple[Dict[str, object], object]:
    """Run every cell once; returns ``({label: summary}, RunnerStats)``.

    *monitor* is handed to the runner (see :mod:`perfbench.speed`).
    """
    from repro.runner import SweepRunner

    runner = SweepRunner(jobs=1, monitor=monitor)
    base = base_config(workload, seed)
    if workload == "syn_flood":
        from repro.experiments.exp2_floods import run_syn_flood_suite_report

        return run_syn_flood_suite_report(base, runner)
    if workload == "conn_flood":
        from repro.experiments.exp2_floods import \
            run_connection_flood_suite_report

        return run_connection_flood_suite_report(base, runner)
    from repro.experiments.summary import run_scenario_summary
    from repro.faults.chaos import overload_matrix

    matrix = overload_matrix(base)
    labels: List[str] = list(matrix)
    report = runner.map(run_scenario_summary,
                        [spec.config for spec in matrix.values()],
                        labels=labels)
    return dict(zip(labels, report.values)), report.stats
