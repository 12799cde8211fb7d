"""Heterogeneous-clientele experiments: the theory's dropout predictions,
simulated.

The paper's model supports per-user valuations ``w_i`` (§3.2) and §4.2
predicts that users with ``w_i < w_av`` "would consider it more beneficial
for them to drop out" as difficulty rises; §7 flags the "non-uniform mix
between power-limited and power-endowed benign devices" as an open
problem. These experiments put both on the simulator:

* :func:`dropout_prediction_table` — the pure theory: equilibrium rates
  per device class across difficulties (who participates at which price);
* :func:`mixed_clientele_experiment` — the system: a benign population of
  Xeon laptops *and* Raspberry-Pi-class devices under the §6 connection
  flood, measuring per-class completion and solve latency at a given
  difficulty. The theory says the Pis are priced out near the Xeon-tuned
  Nash difficulty; the simulator shows exactly how (their solves arrive,
  but late and at a trickle).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.equilibrium import ClientGame
from repro.experiments.scenario import Scenario, ScenarioConfig, \
    ScenarioResult
from repro.hosts.cpu import CPU_CATALOG, IOT_CATALOG, CPUProfile
from repro.puzzles.params import PuzzleParams
from repro.tcp.constants import DefenseMode


# ----------------------------------------------------------------------
# Theory: per-class participation across difficulties
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DropoutRow:
    difficulty: float
    rates_by_class: Dict[str, float]   # equilibrium x_i per device class
    active_classes: int


def dropout_prediction_table(
        class_sizes: Optional[Dict[str, int]] = None,
        difficulties: Sequence[float] = (1_000.0, 8_000.0, 30_000.0,
                                         67_000.0, 131_072.0),
        mu: float = 1100.0,
        budget: float = 0.4) -> List[DropoutRow]:
    """Equilibrium request rates per device class (Eq. 9–11 with
    heterogeneous w_i = hash_rate × 400 ms).

    Device classes come from the hardware catalog; a class's valuation is
    what its CPU can do within the usability budget — power-limited
    devices are *literally* lower-w users in the model.
    """
    if class_sizes is None:
        class_sizes = {"cpu1": 5, "cpu3": 5, "D1": 5}
    catalog = {**CPU_CATALOG, **IOT_CATALOG}
    weights: List[float] = []
    labels: List[str] = []
    for name, count in class_sizes.items():
        w = catalog[name].hash_rate * budget
        weights.extend([w] * count)
        labels.extend([name] * count)
    game = ClientGame(weights, mu=mu)

    rows = []
    for difficulty in difficulties:
        solution = game.solve(difficulty)
        by_class: Dict[str, float] = {}
        for label, rate in zip(labels, solution.rates):
            by_class[label] = rate  # same within a class at equilibrium
        active = sum(1 for rate in by_class.values() if rate > 0)
        rows.append(DropoutRow(difficulty=difficulty,
                               rates_by_class=by_class,
                               active_classes=active))
    return rows


# ----------------------------------------------------------------------
# System: a mixed benign population under attack
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MixedClassOutcome:
    device_class: str
    completion_percent: float
    mean_connect_time: float           # seconds, established connections
    challenged: int


@dataclass(frozen=True)
class MixedClienteleOutcome:
    per_class: List[MixedClassOutcome]
    result: ScenarioResult


def mixed_clientele_experiment(
        base: Optional[ScenarioConfig] = None,
        fast_class: str = "cpu1",
        slow_class: str = "D1",
        params: Optional[PuzzleParams] = None) -> MixedClienteleOutcome:
    """Half the benign population on Xeon-class hardware, half on
    Pi-class, under the §6 connection flood with puzzles.

    Uses the scenario machinery with per-host CPU assignment and
    per-class tracking labels (via client label override).
    """
    import numpy as np

    config = base if base is not None else ScenarioConfig()
    catalog = {**CPU_CATALOG, **IOT_CATALOG}
    n = config.n_clients
    cpus = ([catalog[fast_class]] * (n - n // 2)
            + [catalog[slow_class]] * (n // 2))
    config = replace(
        config, defense=DefenseMode.PUZZLES,
        puzzle_params=params if params is not None else PuzzleParams(
            k=2, m=17),
        attack_style="connect",
        client_cpus=cpus)

    scenario = Scenario(config)
    result = scenario.build()
    # Relabel the slow half so the tracker splits the classes.
    for i, client in enumerate(result.clients):
        if i >= n - n // 2:
            client.config.label = f"client-{slow_class}"
        else:
            client.config.label = f"client-{fast_class}"
    scenario.drive(result)

    start, end = result.attack_window()
    per_class = []
    for label_class in (fast_class, slow_class):
        label = f"client-{label_class}"
        records = [r for r in result.tracker.records
                   if r.label == label and start <= r.t_open < end]
        attempts = len(records)
        completed = sum(1 for r in records if r.t_completed is not None)
        challenged = sum(1 for r in records if r.challenged)
        connect_times = [r.connect_time for r in records
                         if r.connect_time is not None]
        per_class.append(MixedClassOutcome(
            device_class=label_class,
            completion_percent=(100.0 * completed / attempts
                                if attempts else float("nan")),
            mean_connect_time=(float(np.mean(connect_times))
                               if connect_times else float("nan")),
            challenged=challenged))
    return MixedClienteleOutcome(per_class=per_class, result=result)
