"""Experiments for the §7 extensions this library implements beyond the
paper's evaluation:

* :func:`adaptive_difficulty_experiment` — the closed-control-loop
  difficulty tuner, starting from a deliberately-too-easy setting and
  converging under attack;
* :func:`solution_flood_experiment` — the verification-exhaustion attack
  §7 analyses, measured on the simulated server;
* :func:`pow_fairness_table` — hashcash vs memory-bound fairness across
  the hardware catalog (the Bitcoin-mining-pool concern).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.scenario import Scenario, ScenarioConfig, \
    ScenarioResult
from repro.hosts.attacker import AttackerConfig, SolutionFlooder
from repro.hosts.cpu import CPU_CATALOG, IOT_CATALOG
from repro.puzzles.membound import (
    MemboundParams,
    fairness_ratio,
    solve_seconds,
)
from repro.puzzles.params import PuzzleParams
from repro.tcp.adaptive import AdaptiveConfig, AdaptiveDifficultyController
from repro.tcp.constants import DefenseMode


# ----------------------------------------------------------------------
# Adaptive difficulty
# ----------------------------------------------------------------------
@dataclass
class AdaptiveOutcome:
    """Adaptive-vs-static comparison under the same attack."""

    adaptive: ScenarioResult
    static: ScenarioResult
    m_trajectory: List[Tuple[float, int, float]]

    @property
    def final_m(self) -> int:
        return self.m_trajectory[-1][1] if self.m_trajectory else -1


def adaptive_difficulty_experiment(
        base: Optional[ScenarioConfig] = None,
        start_m: int = 8,
        controller: Optional[AdaptiveConfig] = None) -> AdaptiveOutcome:
    """Run the connection flood twice: once with static (1, start_m)
    puzzles — too easy, per Experiment 3 — and once with the closed-loop
    controller starting from the same point."""
    config = base if base is not None else ScenarioConfig()
    config = replace(config, defense=DefenseMode.PUZZLES,
                     puzzle_params=PuzzleParams(k=1, m=start_m),
                     attack_style="connect")

    static = Scenario(config).run()

    scenario = Scenario(config)
    result = scenario.build()
    tuner = AdaptiveDifficultyController(
        result.engine, result.server_app.listener, controller)
    tuner.start()
    scenario.drive(result)
    tuner.stop()
    return AdaptiveOutcome(adaptive=result, static=static,
                           m_trajectory=list(tuner.history))


# ----------------------------------------------------------------------
# Solution floods
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolutionFloodPoint:
    flood_rate: float                # bogus solutions/second
    server_cpu_percent: float        # during the flood
    rejected: int                    # solutions that failed verification
    client_completion_percent: float


def solution_flood_experiment(
        rates: Tuple[float, ...] = (1_000.0, 5_000.0, 20_000.0),
        base: Optional[ScenarioConfig] = None) -> List[SolutionFloodPoint]:
    """§7's "Solution floods": bogus-solution barrages at growing rates.

    The §7 closed form says saturating a 10.8 M hash/s server takes
    ~5.4 M pps; these measured points let one check the linear
    extrapolation (CPU% per pps) against it.
    """
    points = []
    for rate in rates:
        config = base if base is not None else ScenarioConfig()
        config = replace(config, defense=DefenseMode.PUZZLES,
                         attack_enabled=False)
        scenario = Scenario(config)
        result = scenario.build()
        # One well-connected machine sprays bogus solutions for the whole
        # attack window.
        flooder_host = result.hosts["client" + str(config.n_clients - 1)]
        flooder = SolutionFlooder(
            flooder_host,
            AttackerConfig(server_ip=result.hosts["server"].address,
                           rate=rate),
            params=config.puzzle_params)
        result.engine.schedule_at(config.attack_start, flooder.start)
        result.engine.schedule_at(config.attack_end, flooder.stop)
        scenario.drive(result)
        start, end = result.attack_window()
        points.append(SolutionFloodPoint(
            flood_rate=rate,
            server_cpu_percent=result.cpu.mean_in("server", start, end),
            rejected=result.listener_stats.solutions_invalid,
            client_completion_percent=result.client_completion_percent()))
    return points


# ----------------------------------------------------------------------
# Proof-of-work fairness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FairnessRow:
    device: str
    hashcash_solve_s: float
    membound_solve_s: float


@dataclass(frozen=True)
class FairnessReport:
    rows: List[FairnessRow]
    hashcash_spread: float    # max/min solve time across devices
    membound_spread: float


def pow_fairness_table(
        hashcash: Optional[PuzzleParams] = None,
        membound: Optional[MemboundParams] = None) -> FairnessReport:
    """Solve times per device for CPU-bound vs memory-bound puzzles.

    Difficulties are calibrated so cpu3 (the median Xeon) pays ~the same
    time under both schemes; the spread across the full catalog is then an
    apples-to-apples fairness comparison.
    """
    hashcash = hashcash if hashcash is not None else PuzzleParams(k=2,
                                                                  m=17)
    devices = {**CPU_CATALOG, **IOT_CATALOG}
    reference = CPU_CATALOG["cpu3"]
    if membound is None:
        # Match cpu3's hashcash solve time with walk_length 32.
        target_seconds = hashcash.expected_hashes / reference.hash_rate
        walks_needed = target_seconds * reference.memory_rate / 32
        m = max(1, round(walks_needed).bit_length())
        membound = MemboundParams(table_bits=22, walk_length=32, m=m)

    rows = []
    for name, profile in devices.items():
        rows.append(FairnessRow(
            device=name,
            hashcash_solve_s=hashcash.expected_hashes / profile.hash_rate,
            membound_solve_s=solve_seconds(membound,
                                           profile.memory_rate)))
    return FairnessReport(
        rows=rows,
        hashcash_spread=fairness_ratio(
            [p.hash_rate for p in devices.values()]),
        membound_spread=fairness_ratio(
            [p.memory_rate for p in devices.values()]))


# ----------------------------------------------------------------------
# HTTP/1.1 keep-alive amortisation (§4.2)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KeepAliveOutcome:
    """Per-request vs persistent-session service under the same attack."""

    per_request_completion: float     # % of requests served
    keepalive_completion: float
    per_request_challenged: int       # puzzles actually paid
    keepalive_challenged: int
    keepalive_sessions: int


def keepalive_experiment(base: Optional[ScenarioConfig] = None
                         ) -> KeepAliveOutcome:
    """§4.2's observation, measured: on a persistent session the client
    "would only need to pay p* hashes once", so under attack a keep-alive
    population pays a fraction of the puzzles yet completes more requests.
    """
    from repro.hosts.client import BenignClient, ClientConfig, \
        KeepAliveClient
    from repro.hosts.server import ServerConfig

    config = base if base is not None else ScenarioConfig()
    config = replace(config, defense=DefenseMode.PUZZLES,
                     attack_style="connect")

    results = {}
    for keep_alive in (False, True):
        scenario = Scenario(config)
        result = scenario.build()
        # Rebuild the server app with keep-alive enabled.
        if keep_alive:
            result.server_app.config.keep_alive = True
            # Swap the (not-yet-started) per-request clients for
            # keep-alive sessions on the same hosts.
            keepalive_clients = [
                KeepAliveClient(client.host, client.config,
                                client.tracker)
                for client in result.clients
            ]
            result.clients.clear()
            result.clients.extend(keepalive_clients)
        scenario.drive(result)
        results[keep_alive] = result

    per_request = results[False]
    keepalive = results[True]
    return KeepAliveOutcome(
        per_request_completion=per_request.client_completion_percent(),
        keepalive_completion=keepalive.client_completion_percent(),
        per_request_challenged=per_request.tracker.counts(
            "client")["challenged"],
        keepalive_challenged=keepalive.tracker.counts(
            "client")["challenged"],
        keepalive_sessions=sum(
            getattr(c, "sessions_opened", 0) for c in keepalive.clients))


# ----------------------------------------------------------------------
# Puzzle Fair Queuing (§7)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FairQueuingOutcome:
    """Uniform Nash pricing vs per-source escalation, same attack."""

    uniform: ScenarioResult
    fair: ScenarioResult
    #: Mean hashes a *client* actually paid per established connection.
    uniform_client_cost: float
    fair_client_cost: float

    @property
    def client_cost_ratio(self) -> float:
        """< 1 means fair queuing made honest clients cheaper."""
        if self.uniform_client_cost == 0:
            return float("nan")
        return self.fair_client_cost / self.uniform_client_cost


def _mean_client_solve_cost(result: ScenarioResult) -> float:
    """Average sampled solve attempts per challenged client connection."""
    total = 0
    count = 0
    for host_name, host in result.hosts.items():
        if not host_name.startswith("client"):
            continue
        total += host.hash_counter.count
    challenged = result.tracker.counts("client")["challenged"]
    return total / challenged if challenged else 0.0


def fair_queuing_experiment(base: Optional[ScenarioConfig] = None
                            ) -> FairQueuingOutcome:
    """Uniform (2, 17) pricing vs Puzzle Fair Queuing under the flood.

    Fair queuing starts everyone at an easy base (k=1, m=12) and escalates
    heavy sources; honest low-rate clients should end up paying *less* per
    connection than under uniform Nash pricing while the flooding sources
    get priced out just as hard.
    """
    from repro.tcp.fairness import FairnessConfig

    config = base if base is not None else ScenarioConfig()
    config = replace(config, defense=DefenseMode.PUZZLES,
                     attack_style="connect", attackers_solve=True)

    uniform = Scenario(replace(
        config, puzzle_params=PuzzleParams(k=2, m=17))).run()
    fair = Scenario(replace(
        config,
        puzzle_params=PuzzleParams(k=1, m=12),
        fairness=FairnessConfig(
            base_params=PuzzleParams(k=1, m=12)))).run()

    return FairQueuingOutcome(
        uniform=uniform, fair=fair,
        uniform_client_cost=_mean_client_solve_cost(uniform),
        fair_client_cost=_mean_client_solve_cost(fair))
