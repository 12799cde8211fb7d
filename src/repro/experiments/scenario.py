"""The shared §6 evaluation scenario.

One server (HP DL360-class, µ = 1100 req/s) serves 15 clients requesting
10,000 bytes at 20 req/s each over the Figure 16 topology, while a botnet
of 10 machines attacks at 500 attempts/s each. Experiments vary the defense
mode, puzzle difficulty, attack style/rate/size, and adoption flags.

Scale-down: the paper's 600 s run (attack 120–480 s) is shrunk by
``time_scale`` (default 0.1 → 60 s run, attack 12–48 s) with identical
*rates*; queue bounds shrink with a milder factor so transients stay
proportionate. ``ScenarioConfig.paper_scale()`` restores full scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.errors import ExperimentError
from repro.hosts.attacker import AttackerConfig, AttackStats
from repro.hosts.botnet import Botnet, build_botnet
from repro.hosts.client import BenignClient, ClientConfig
from repro.hosts.cpu import CPU_CATALOG, SERVER_CPU, CPUProfile
from repro.hosts.host import Host
from repro.hosts.server import AppServer, ServerConfig
from repro.metrics.connections import ConnectionTracker
from repro.metrics.series import BinnedSeries
from repro.metrics.summary import Summary, describe
from repro.metrics.throughput import HostThroughput
from repro.net.addresses import AddressAllocator
from repro.net.network import Network
from repro.net.topology import Topology, deter_topology
from repro.obs import (Observability, SimSampler, SourceAttribution,
                       TelemetrySpec, hub_for)
from repro.obs.timeseries import CPUUtilization, QueueDepths
from repro.puzzles.juels import JuelsBrainardScheme
from repro.puzzles.params import PuzzleParams
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.tcp.constants import DefenseMode
from repro.tcp.fairness import FairnessConfig, FairQueuingPolicy
from repro.tcp.listener import DefenseConfig
from repro.tcp.overload import (AdmissionControl, OverloadConfig,
                                OverloadWatchdog)
from repro.tcp.syncache import SynCache


@dataclass
class ScenarioConfig:
    """Everything that varies across the paper's experiments."""

    seed: int = 1
    # --- timeline (scaled) -------------------------------------------
    time_scale: float = 0.1
    base_duration: float = 600.0
    base_attack_start: float = 120.0
    base_attack_end: float = 480.0
    # --- benign population -------------------------------------------
    n_clients: int = 15
    client_rate: float = 20.0
    request_size: int = 10_000
    clients_patched: bool = True        # run the kernel patch
    clients_solve: bool = True          # and solve challenges
    # --- attack --------------------------------------------------------
    n_attackers: int = 10
    attack_rate: float = 500.0          # per bot, attempts/second
    #: "syn" (spoofed half-open flood), "connect" (handshake-completing
    #: flood), or "mixed" — half the botnet on each vector, the
    #: multi-vector pattern the paper's introduction motivates.
    attack_style: str = "connect"
    attackers_solve: bool = True        # §6 Exp 2: all machines patched
    attack_enabled: bool = True
    #: Size of each bot's blocking socket pool (nping-style): against a
    #: challenging server, slots block for ~the tool timeout, dropping the
    #: measured attack rate to ≈ pool/timeout per bot (Figures 13a/14a).
    attacker_max_pending: int = 150
    # --- server / defense ----------------------------------------------
    defense: DefenseMode = DefenseMode.PUZZLES
    puzzle_params: PuzzleParams = field(
        default_factory=lambda: PuzzleParams(k=2, m=17))
    #: Optional Puzzle Fair Queuing (§7 extension): per-source difficulty
    #: escalation instead of uniform pricing.
    fairness: Optional["FairnessConfig"] = None
    #: "modeled" (sampled attempt counts — the fast default) or "real"
    #: (actual SHA-256 brute force end to end; keep m small). Both modes
    #: share the binding/expiry semantics.
    crypto_mode: str = "modeled"
    #: Challenge every SYN regardless of queue pressure (DefenseConfig
    #: passthrough). The chaos corruption fault needs puzzle options on
    #: the wire even before the queues fill.
    always_challenge: bool = False
    backlog: int = 1024
    accept_backlog: int = 1024
    service_rate: float = 1100.0
    workers: int = 128
    idle_timeout: float = 0.57
    # --- measurement -----------------------------------------------------
    bin_width: float = 1.0
    # --- observability ---------------------------------------------------
    #: Record handshake tracepoints (ring-buffered; off by default so the
    #: hot path stays a single flag test).
    tracing: bool = False
    trace_capacity: int = 65536
    #: Streaming telemetry (:class:`~repro.obs.TelemetrySpec`): sim-time
    #: series sampled on a fixed cadence, plus optional bounded-memory
    #: per-source attribution sketches on the listener. ``None`` (the
    #: default) records no telemetry series, schedules nothing beyond
    #: the run's one sampler tick, and adds no per-event cost.
    telemetry: Optional[TelemetrySpec] = None
    #: Graceful-degradation ladder (:class:`~repro.tcp.overload.
    #: OverloadConfig`): budgeted syncache construction, the
    #: syncookie-fallback watermarks, admission control, and the overload
    #: watchdog. ``None`` (the default) builds none of it — runs are
    #: byte-identical to a ladder-less build.
    overload: Optional[OverloadConfig] = None
    # --- hardware --------------------------------------------------------
    client_cpus: Optional[List[CPUProfile]] = None
    attacker_cpus: Optional[List[CPUProfile]] = None

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        return self.base_duration * self.time_scale

    @property
    def attack_start(self) -> float:
        return self.base_attack_start * self.time_scale

    @property
    def attack_end(self) -> float:
        return self.base_attack_end * self.time_scale

    def paper_scale(self) -> "ScenarioConfig":
        """Full-length 600 s timeline with paper-sized queue bounds."""
        return replace(self, time_scale=1.0, backlog=4096,
                       accept_backlog=4096)

    def __post_init__(self) -> None:
        if self.time_scale <= 0:
            raise ExperimentError("time_scale must be positive")
        if not (0 <= self.base_attack_start <= self.base_attack_end
                <= self.base_duration):
            raise ExperimentError(
                "need 0 <= attack_start <= attack_end <= duration")
        if self.attack_style not in ("syn", "connect", "mixed"):
            raise ExperimentError(
                f"unknown attack_style {self.attack_style!r}")


class RunMeasures:
    """The run-level measures the paper judges each defense by.

    Shared by the live :class:`ScenarioResult` and its picklable
    :class:`~repro.experiments.summary.ScenarioSummary`. Both provide
    ``config``, ``client_throughput``, ``server_throughput``,
    ``server_established``, ``tracker`` (a
    :class:`~repro.metrics.connections.ConnectionLog`) and
    ``attack_stats`` (the botnet's aggregate
    :class:`~repro.hosts.attacker.AttackStats`, or ``None``).
    """

    def attack_window(self) -> tuple:
        return (self.config.attack_start, self.config.attack_end)

    def client_throughput_during_attack(self) -> Summary:
        """Per-bin client rx throughput (Mbps) over the attack window."""
        start, end = self.attack_window()
        times, mbps = self.client_throughput.rx_mbps(self.config.duration)
        mask = (times >= start) & (times < end)
        return describe(mbps[mask])

    def server_throughput_during_attack(self) -> Summary:
        start, end = self.attack_window()
        times, mbps = self.server_throughput.tx_mbps(self.config.duration)
        mask = (times >= start) & (times < end)
        return describe(mbps[mask])

    def client_throughput_before_attack(self) -> Summary:
        times, mbps = self.client_throughput.rx_mbps(self.config.duration)
        mask = times < self.config.attack_start
        return describe(mbps[mask])

    def attacker_established_rate(self, start: Optional[float] = None,
                                  end: Optional[float] = None) -> float:
        """Mean attacker connections/second established *at the server*
        during the attack (Figure 11's 'effective attack rate').

        Measured server-side: a flooder that believes it connected (its ACK
        was silently ignored) does not count — only accepted state does.
        Defaults to the whole attack window; pass *start*/*end* to exclude
        e.g. the pre-protection transient (scaled-down runs concentrate it).
        """
        window_start, window_end = self.attack_window()
        if start is None:
            start = window_start
        if end is None:
            end = window_end
        series = self.server_established.get("attacker")
        if series is None:
            return 0.0
        return series.window_sum(start, end) / max(end - start, 1e-9)

    def attacker_steady_state_rate(self) -> float:
        """Effective attack rate over the second half of the attack window
        — past the engagement transient."""
        start, end = self.attack_window()
        return self.attacker_established_rate(start=(start + end) / 2.0)

    def attacker_established_series(self) -> tuple:
        """(times, connections/second) accepted from attackers (Fig. 11)."""
        series = self.server_established.get("attacker")
        if series is None:
            series = BinnedSeries(self.config.bin_width)
        return series.rate_series(self.config.duration)

    def attacker_measured_rate(self) -> float:
        """Mean attacker SYN/attempt rate actually achieved (Figures 13a,
        14a: CPU-bound bots fall below their configured rate)."""
        if self.attack_stats is None:
            return 0.0
        start, end = self.attack_window()
        return self.attack_stats.syns_sent / max(end - start, 1e-9)

    def client_completion_percent(self) -> float:
        """% of client attempts opened during the attack that completed
        (NaN when there were none)."""
        start, end = self.attack_window()
        attempts = completed = 0
        for record in self.tracker.records:
            if record.label != "client":
                continue
            if not start <= record.t_open < end:
                continue
            attempts += 1
            if record.t_completed is not None:
                completed += 1
        if attempts == 0:
            return float("nan")
        return 100.0 * completed / attempts


@dataclass
class ScenarioResult(RunMeasures):
    """Everything measured during one scenario run."""

    config: ScenarioConfig
    engine: Engine
    tracker: ConnectionTracker
    server_throughput: HostThroughput
    client_throughput: HostThroughput   # the paper's "a client" (client0)
    #: The run's one periodic reader: the Figure 9/10 series (read
    #: through :attr:`cpu` and :attr:`queues`) and, when
    #: ``config.telemetry`` is set, the telemetry series.
    sampler: SimSampler
    server_app: AppServer
    botnet: Optional[Botnet]
    clients: List[BenignClient]
    hosts: Dict[str, Host]
    #: Server-side establishment events, classified "client"/"attacker"
    #: by remote address — the ground truth behind Figure 11.
    server_established: Dict[str, BinnedSeries] = field(
        default_factory=dict)
    #: The engine's observability hub (SNMP counters + handshake tracer).
    obs: Optional[Observability] = None
    #: Bounded-memory per-source attribution sketches, present when
    #: ``config.telemetry`` asked for them.
    attribution: Optional[SourceAttribution] = None
    #: The fault injector, present when the scenario ran with a
    #: non-empty :class:`~repro.faults.schedule.FaultSchedule`.
    fault_injector: Optional[object] = None
    #: The runtime invariant checker, when one was attached.
    invariants: Optional[object] = None
    #: The overload watchdog, present when ``config.overload`` was set.
    watchdog: Optional[OverloadWatchdog] = None

    # ------------------------------------------------------------------
    @property
    def listener_stats(self):
        return self.server_app.listener.stats

    @property
    def cpu(self) -> CPUUtilization:
        return self.sampler.cpu

    @property
    def queues(self) -> QueueDepths:
        return self.sampler.queues

    @property
    def attack_stats(self) -> Optional[AttackStats]:
        if self.botnet is None:
            return None
        return self.botnet.aggregate_stats()


class Scenario:
    """Builds and runs one instance of the §6 testbed."""

    def __init__(self, config: Optional[ScenarioConfig] = None,
                 faults: Optional[object] = None,
                 invariant_interval: float = 0.0) -> None:
        self.config = config if config is not None else ScenarioConfig()
        #: Optional :class:`~repro.faults.schedule.FaultSchedule`; the
        #: injector shares the scenario seed, so ``(seed, schedule)``
        #: fully determines the perturbed run.
        self.faults = faults
        #: Run the :class:`~repro.faults.invariants.InvariantChecker`
        #: every this many sim-seconds (0 = off).
        self.invariant_interval = invariant_interval

    # ------------------------------------------------------------------
    def build(self) -> ScenarioResult:
        config = self.config
        engine = Engine()
        # Configure the hub before any Host exists so every host shares
        # a tracer that is already sized and armed (or not).
        obs = hub_for(engine)
        obs.tracer.configure(capacity=config.trace_capacity,
                             enabled=config.tracing)
        streams = RngStreams(config.seed)
        topology = deter_topology(config.n_clients, config.n_attackers)
        network = Network(engine, topology)
        allocator = AddressAllocator()

        # --- server ----------------------------------------------------
        server_host = Host("server", allocator.allocate(), engine, network,
                           SERVER_CPU, streams.get("server"))
        scheme = JuelsBrainardScheme(mode=config.crypto_mode)
        solver = scheme.solver()
        defense = DefenseConfig(
            mode=config.defense,
            puzzle_params=config.puzzle_params,
            scheme=scheme,
            backlog=config.backlog,
            accept_backlog=config.accept_backlog,
            always_challenge=config.always_challenge,
            fairness=(FairQueuingPolicy(config.fairness)
                      if config.fairness is not None else None))
        if config.overload is not None:
            ov = config.overload
            if config.defense is DefenseMode.SYNCACHE:
                defense.syncache = SynCache(
                    bucket_count=ov.syncache_buckets,
                    bucket_limit=ov.syncache_bucket_limit,
                    policy=ov.syncache_policy,
                    rng=streams.get("syncache"),
                    memory_budget=ov.syncache_memory_budget,
                    lifetime=ov.syncache_lifetime)
                defense.syncache_high_watermark = ov.high_watermark
                defense.syncache_low_watermark = ov.low_watermark
        server_config = ServerConfig(
            service_rate=config.service_rate,
            workers=config.workers,
            idle_timeout=config.idle_timeout,
            defense=defense)
        server_app = AppServer(server_host, server_config)

        tracker = ConnectionTracker(engine, bin_width=config.bin_width)
        hosts: Dict[str, Host] = {"server": server_host}

        # --- clients -----------------------------------------------------
        client_cpus = config.client_cpus or list(CPU_CATALOG.values())
        clients: List[BenignClient] = []
        cpu_cycle = itertools.cycle(client_cpus)
        for i in range(config.n_clients):
            host = Host(f"client{i}", allocator.allocate(), engine, network,
                        next(cpu_cycle), streams.get(f"client{i}"))
            hosts[host.name] = host
            client_config = ClientConfig(
                server_ip=server_host.address,
                request_rate=config.client_rate,
                request_size=config.request_size,
                supports_puzzles=config.clients_patched,
                solve_puzzles=config.clients_solve,
                solver=solver)
            clients.append(BenignClient(host, client_config, tracker))

        # --- botnet ------------------------------------------------------
        botnet: Optional[Botnet] = None
        if config.attack_enabled and config.n_attackers > 0:
            attacker_cpus = config.attacker_cpus or list(
                CPU_CATALOG.values())
            attacker_hosts = []
            cpu_cycle = itertools.cycle(attacker_cpus)
            for i in range(config.n_attackers):
                host = Host(f"attacker{i}", allocator.allocate(), engine,
                            network, next(cpu_cycle),
                            streams.get(f"attacker{i}"))
                hosts[host.name] = host
                attacker_hosts.append(host)
            attacker_config = AttackerConfig(
                server_ip=server_host.address,
                rate=config.attack_rate,
                solve=config.attackers_solve,
                max_pending=config.attacker_max_pending,
                solver=solver)
            if config.attack_style == "mixed":
                # Multi-vector: half the fleet floods spoofed SYNs, half
                # completes handshakes.
                half = len(attacker_hosts) // 2
                syn_half = build_botnet(attacker_hosts[:half], "syn",
                                        attacker_config, tracker)
                conn_half = build_botnet(attacker_hosts[half:], "connect",
                                         attacker_config, tracker)
                botnet = Botnet(bots=syn_half.bots + conn_half.bots)
            else:
                botnet = build_botnet(attacker_hosts, config.attack_style,
                                      attacker_config, tracker)

        # --- metrics -------------------------------------------------------
        server_throughput = HostThroughput(server_host.address,
                                           config.bin_width)
        client_throughput = HostThroughput(hosts["client0"].address,
                                           config.bin_width)
        network.add_throughput_tap(server_throughput)
        network.add_throughput_tap(client_throughput)

        attacker_ips = {host.address for name, host in hosts.items()
                        if name.startswith("attacker")}
        server_established = {
            "client": BinnedSeries(config.bin_width),
            "attacker": BinnedSeries(config.bin_width),
        }

        def on_established(remote_ip: int, path) -> None:
            label = "attacker" if remote_ip in attacker_ips else "client"
            server_established[label].add(engine.now)

        server_app.listener.on_established_hook = on_established

        cpu_hosts = [hosts["client0"], server_host]
        if botnet is not None:
            cpu_hosts.append(hosts["attacker0"])
        sampler = SimSampler(engine, obs, config.telemetry,
                             listener=server_app.listener,
                             cpu_hosts=cpu_hosts, duration=config.duration)

        # --- per-source attribution (opt-in) ---------------------------
        attribution: Optional[SourceAttribution] = None
        if config.telemetry is not None and config.telemetry.attribution:
            attribution = SourceAttribution.from_spec(
                config.telemetry, seed=config.seed)
            server_app.listener.attribution = attribution

        # --- graceful-degradation ladder (opt-in) ----------------------
        watchdog: Optional[OverloadWatchdog] = None
        if config.overload is not None:
            if config.overload.syn_rate_limit is not None:
                server_app.listener.admission = AdmissionControl(
                    config.overload)
            watchdog = OverloadWatchdog(server_app.listener,
                                        config.overload)

        return ScenarioResult(
            config=config, engine=engine, tracker=tracker,
            server_throughput=server_throughput,
            client_throughput=client_throughput,
            sampler=sampler, server_app=server_app, botnet=botnet,
            clients=clients, hosts=hosts,
            server_established=server_established,
            obs=obs, attribution=attribution, watchdog=watchdog)

    # ------------------------------------------------------------------
    def run(self) -> ScenarioResult:
        """Build, run to the configured duration, and return the result."""
        result = self.build()
        self.drive(result)
        return result

    def drive(self, result: ScenarioResult) -> None:
        """Run a built scenario to the configured duration, then drain it.

        Installs the fault schedule and the invariant checker, starts the
        clients, the sampler, the watchdog and (staggered) the botnet,
        and stops them all at the end. Experiments that adjust a built
        scenario before it runs call this instead of :meth:`run`.
        """
        config = self.config
        # Fault injection and invariant checking are imported lazily so
        # the plain scenario path never pays for (or depends on) them.
        if self.faults is not None and not self.faults.is_empty():
            from repro.faults.injectors import FaultInjector

            injector = FaultInjector(self.faults, seed=config.seed)
            injector.install(result.engine,
                             result.hosts["server"].network,
                             result.server_app.listener)
            result.fault_injector = injector
        checker = None
        if self.invariant_interval > 0:
            from repro.faults.invariants import InvariantChecker

            tracer = result.obs.tracer if result.obs is not None else None
            checker = InvariantChecker(result.server_app.listener,
                                       interval=self.invariant_interval,
                                       tracer=tracer)
            checker.start()
            result.invariants = checker
        for client in result.clients:
            client.start()
        result.sampler.start()
        if result.watchdog is not None:
            result.watchdog.start()
        if result.botnet is not None:
            result.engine.schedule_at(
                config.attack_start,
                lambda: result.botnet.start(
                    stagger=1.0 / (config.attack_rate
                                   * max(1, config.n_attackers))))
            result.engine.schedule_at(config.attack_end,
                                      result.botnet.stop)
        result.engine.run(until=config.duration)
        for client in result.clients:
            client.stop()
        result.sampler.stop()
        if result.watchdog is not None:
            result.watchdog.stop()
        if checker is not None:
            # Audit once more while timer state is still live — drain()
            # would discard the evidence a leaked TCB leaves behind.
            checker.final_check()
        result.engine.drain()
