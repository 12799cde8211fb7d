"""Micro-benchmark harness: deterministic hot-path yardsticks as manifests.

The ROADMAP's engine-speed era ("10× the event engine", ≥500k events/s)
needs per-hot-path yardsticks that are **versioned, diffable, and
CI-gated** — pytest-benchmark tables printed to a terminal are none of
those. This module is a registry of *deterministic, self-timing*
micro-benchmarks whose results land as ``BENCH_micro_<name>.json``
manifests in the exact shape :mod:`repro.obs.benchcmp` already gates:

* a ``perf`` block (``wall_seconds``, ``events_per_second``) compared
  direction-aware inside the perf tolerance band;
* a ``counters`` block proving the benchmark did exactly the same
  *work* as the baseline (schedule/cancel/fire counts, bytes encoded,
  cache evictions …) — compared exactly, so a micro-benchmark whose
  workload silently changed fails the gate even if it got faster;
* a per-operation wall-time histogram (``micro_op.<name>``) whose
  quantiles catch latency-shape regressions that survive a mean.

Each registered benchmark is a plain function ``fn(iterations) ->
Dict[str, int]``: it performs ``iterations`` units of deterministic work
(fixed seeds, fixed mixes — no wall-clock-dependent control flow) and
returns its work counters. The harness times the call, repeats it, and
keeps the **best** wall time (minimum — the standard micro-benchmark
noise filter), so ``events_per_second`` is the machine's demonstrated
capability, not its scheduling luck.

The built-in suite covers the hot paths the optimization PRs will touch:

* ``timer_churn`` — schedule/cancel/pop mixes against
  :class:`~repro.sim.engine.Engine` mimicking SYN-ACK RTO patterns
  (most handshake timers are cancelled, some fire) — the ROADMAP's
  ``BENCH_micro_timer_churn.json`` yardstick;
* ``engine_dispatch`` — pure callback-chain dispatch throughput;
* ``puzzle_codec`` — challenge/solution option-block encode/decode;
* ``syncache_churn`` — SYN cache insert/complete/expire under bucket
  pressure;
* ``packet_churn`` — handshake packet construction + size accounting;
* ``hist_record`` — histogram record + quantile read throughput;
* ``sketch_update`` — per-source attribution sketches fed a spoofed
  /32 SYN stream and a skewed /16 stream (Space-Saving eviction order
  is pinned by the snapshot checksum, the Count-Min rows by a checksum
  of point estimates over fixed probes);
* ``client_handshake`` — connect attempts through the full client and
  server stacks on a two-host network, each answered with a SYN cookie
  and installed in the accept queue (the connection flood's path);
* ``syn_ingress`` — spoofed SYNs from one flooder into a SYN-cookie
  listener whose one listen slot is held (the SYN flood's path: the
  bot's draw, delivery, triage and a blackholed reply per SYN).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.obs.hist import Histogram

#: Manifest-name prefix every harness manifest carries: the file for
#: benchmark ``timer_churn`` is ``BENCH_micro_timer_churn.json``.
MICRO_PREFIX = "micro_"

#: The histogram family micro manifests use for per-op wall time.
MICRO_HIST_FAMILY = "micro_op"

#: The counters scope micro manifests put their work proof under.
MICRO_SCOPE = "micro"


@dataclass(frozen=True)
class MicroBenchmark:
    """One registered micro-benchmark."""

    name: str
    description: str
    #: Iteration count at ``scale=1.0`` — sized so one repeat lands in
    #: the hundreds of milliseconds on the seed machine.
    default_iterations: int
    fn: Callable[[int], Dict[str, int]]


REGISTRY: Dict[str, MicroBenchmark] = {}


def register(name: str, description: str, default_iterations: int):
    """Decorator: add ``fn(iterations) -> counters`` to the registry."""
    def decorator(fn: Callable[[int], Dict[str, int]]):
        if name in REGISTRY:
            raise ExperimentError(f"micro-benchmark {name!r} registered "
                                  f"twice")
        REGISTRY[name] = MicroBenchmark(name=name, description=description,
                                        default_iterations=default_iterations,
                                        fn=fn)
        return fn
    return decorator


@dataclass
class MicroResult:
    """One benchmark's timed runs plus its deterministic work counters."""

    name: str
    description: str
    iterations: int
    repeats: int
    #: Wall seconds of every repeat, in run order.
    walls: List[float]
    #: Work counters from the final repeat (identical across repeats —
    #: the harness asserts it).
    counters: Dict[str, int]
    #: Per-operation wall time, one sample per repeat.
    hist: Histogram = field(default=None)  # type: ignore[assignment]

    @property
    def best_wall(self) -> float:
        return min(self.walls)

    @property
    def ops_per_second(self) -> float:
        best = self.best_wall
        return self.iterations / best if best > 0 else 0.0

    @property
    def per_op_seconds(self) -> float:
        return self.best_wall / self.iterations if self.iterations else 0.0

    def payload(self) -> Dict[str, object]:
        """Manifest body in the shape ``bench-compare`` gates.

        ``counters`` compare exactly (deterministic work), ``perf``
        direction-aware, and the ``micro_op.<name>`` histogram's
        quantiles catch per-op latency regressions.
        """
        return {
            "name": f"{MICRO_PREFIX}{self.name}",
            "micro": {
                "description": self.description,
                "iterations": self.iterations,
                "repeats": self.repeats,
                "wall_seconds_all": list(self.walls),
                "per_op_seconds": self.per_op_seconds,
            },
            "counters": {MICRO_SCOPE: dict(self.counters)},
            "perf": {
                "wall_seconds": self.best_wall,
                "events_per_second": self.ops_per_second,
            },
            "histograms": {self.hist.name: self.hist.as_payload()},
        }

    def render(self) -> str:
        per_op = self.per_op_seconds
        return (f"{self.name:>16s}  {self.iterations:>9d} ops  "
                f"{self.best_wall:8.4f}s best of {self.repeats}  "
                f"{self.ops_per_second:>12,.0f} ops/s  "
                f"{per_op * 1e6:9.3f} us/op")


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def run_benchmark(name: str, repeats: int = 3,
                  scale: float = 1.0) -> MicroResult:
    """Run one registered benchmark; repeats must agree on counters."""
    bench = REGISTRY.get(name)
    if bench is None:
        raise ExperimentError(
            f"unknown micro-benchmark {name!r} "
            f"(registered: {', '.join(sorted(REGISTRY))})")
    if repeats < 1:
        raise ExperimentError(f"repeats must be >= 1, got {repeats}")
    if scale <= 0:
        raise ExperimentError(f"scale must be > 0, got {scale}")
    iterations = max(1, int(bench.default_iterations * scale))
    walls: List[float] = []
    counters: Optional[Dict[str, int]] = None
    hist = Histogram(f"{MICRO_HIST_FAMILY}.{name}")
    for _ in range(repeats):
        started = perf_counter()
        produced = bench.fn(iterations)
        wall = perf_counter() - started
        walls.append(wall)
        hist.record(wall / iterations)
        if counters is not None and produced != counters:
            raise ExperimentError(
                f"micro-benchmark {name!r} is not deterministic: "
                f"repeat counters {produced} != {counters}")
        counters = produced
    return MicroResult(name=name, description=bench.description,
                       iterations=iterations, repeats=repeats,
                       walls=walls, counters=dict(counters or {}),
                       hist=hist)


def run_micro(names: Optional[Sequence[str]] = None, repeats: int = 3,
              scale: float = 1.0) -> List[MicroResult]:
    """Run a subset (default: all) of the registry, name-sorted."""
    selected = sorted(REGISTRY) if names is None else list(names)
    return [run_benchmark(name, repeats=repeats, scale=scale)
            for name in selected]


def write_micro_manifests(results: Sequence[MicroResult],
                          directory) -> List:
    """Persist each result as ``<dir>/BENCH_micro_<name>.json``."""
    from repro.obs.manifest import write_manifest

    paths = []
    for result in results:
        payload = result.payload()
        paths.append(write_manifest(
            f"{directory}/BENCH_{payload['name']}.json", payload))
    return paths


def render_results(results: Sequence[MicroResult]) -> str:
    header = (f"{'benchmark':>16s}  {'iterations':>13s}  "
              f"{'wall':>18s}  {'throughput':>14s}  {'per-op':>12s}")
    return "\n".join([header] + [result.render() for result in results])


# ----------------------------------------------------------------------
# The built-in suite
# ----------------------------------------------------------------------
@register("timer_churn",
          "Engine schedule/cancel/pop mix mimicking SYN-ACK RTO churn "
          "(6 of 8 timers cancelled before firing)",
          default_iterations=200_000)
def _bench_timer_churn(iterations: int) -> Dict[str, int]:
    from repro.sim.engine import Engine

    engine = Engine()
    fired = [0]

    def on_rto() -> None:
        fired[0] += 1

    # Every iteration arms one retransmission timer ~an RTO out; every
    # 8 arrivals, 6 handshakes "complete" (their timers cancel) and the
    # engine advances so due timers pop — the cancel-heavy pattern that
    # makes lazy deletion + compaction (and later the timer wheel) matter.
    #
    # The loop is written as straight-line rounds rather than the
    # obvious deque-of-pending formulation so it times engine calls,
    # not container bookkeeping: once the first 8 arrivals trigger the
    # first completion burst, the window always carries exactly two
    # pending timers into the next 6-arrival round. The op sequence —
    # delay values, schedule order, cancel order, run windows — is
    # identical to the deque version, so every counter matches it.
    d = tuple(0.057 + (j & 7) * 1e-4 for j in range(8))
    schedule, run = engine.schedule, engine.run
    i = 0
    if iterations >= 8:
        e0 = schedule(d[0], on_rto)
        e1 = schedule(d[1], on_rto)
        e2 = schedule(d[2], on_rto)
        e3 = schedule(d[3], on_rto)
        e4 = schedule(d[4], on_rto)
        e5 = schedule(d[5], on_rto)
        a = schedule(d[6], on_rto)
        b = schedule(d[7], on_rto)
        e0.cancel(); e1.cancel(); e2.cancel()
        e3.cancel(); e4.cancel(); e5.cancel()
        run(until=engine.now + 2e-3)
        i = 8
        while i + 6 <= iterations:
            c0 = schedule(d[i & 7], on_rto)
            c1 = schedule(d[(i + 1) & 7], on_rto)
            c2 = schedule(d[(i + 2) & 7], on_rto)
            c3 = schedule(d[(i + 3) & 7], on_rto)
            c4 = schedule(d[(i + 4) & 7], on_rto)
            c5 = schedule(d[(i + 5) & 7], on_rto)
            a.cancel(); b.cancel()
            c0.cancel(); c1.cancel(); c2.cancel(); c3.cancel()
            run(until=engine.now + 2e-3)
            a, b = c4, c5
            i += 6
    # Tail arrivals that never fill a completion window just schedule.
    while i < iterations:
        schedule(d[i & 7], on_rto)
        i += 1
    engine.run()
    stats = engine.stats()
    return {
        "scheduled": int(stats["events_scheduled"]),
        "fired": fired[0],
        "cancelled": int(stats["events_cancelled"]),
        "processed": int(stats["events_processed"]),
        "compactions": int(stats["compactions"]),
        "heap_high_water": int(stats["heap_high_water"]),
    }


@register("engine_dispatch",
          "pure callback-chain dispatch throughput of the DES core",
          default_iterations=300_000)
def _bench_engine_dispatch(iterations: int) -> Dict[str, int]:
    from repro.sim.engine import Engine

    engine = Engine()
    schedule = engine.schedule

    def chain(remaining: int) -> None:
        if remaining:
            schedule(0.001, chain, remaining - 1)

    # Several shorter chains rather than one deep one: keeps a few
    # events resident so the heap is never trivially empty.
    chains = 4
    per_chain = iterations // chains
    for _ in range(chains):
        chain(per_chain)
    engine.run()
    return {
        "processed": engine.events_processed,
        "scheduled": int(engine.stats()["events_scheduled"]),
    }


@register("puzzle_codec",
          "challenge + solution option-block encode/decode roundtrip",
          default_iterations=60_000)
def _bench_puzzle_codec(iterations: int) -> Dict[str, int]:
    from repro.puzzles.codec import (decode_challenge, decode_solution,
                                     encode_challenge, encode_solution)
    from repro.puzzles.juels import (FlowBinding, JuelsBrainardScheme,
                                     ModeledSolver)
    from repro.puzzles.params import PuzzleParams

    binding = FlowBinding(src_ip=0x0A000002, dst_ip=0x0A000001,
                          src_port=43210, dst_port=80, isn=7)
    scheme = JuelsBrainardScheme(mode="modeled")
    params = PuzzleParams(k=2, m=17)
    challenge = scheme.make_challenge(params, binding, 1.0)
    solution = ModeledSolver().solve(challenge, random.Random(5))
    wire_bytes = 0
    for _ in range(iterations):
        blob = encode_challenge(challenge)
        decode_challenge(blob, binding)
        sblob = encode_solution(solution)
        decode_solution(sblob, params)
        wire_bytes += len(blob) + len(sblob)
    return {"roundtrips": iterations, "wire_bytes": wire_bytes}


@register("syncache_churn",
          "SYN cache insert/complete/expire under bucket pressure",
          default_iterations=120_000)
def _bench_syncache_churn(iterations: int) -> Dict[str, int]:
    from repro.tcp.syncache import CacheEntry, SynCache

    # Small table so the eviction path (the attack-relevant branch) is
    # actually exercised, not just the happy path.
    cache = SynCache(bucket_count=64, bucket_limit=8)
    completed = 0
    for i in range(iterations):
        flow = (0x0A000000 + (i % 4096), 1024 + (i % 60000), 80)
        cache.insert(CacheEntry(flow=flow, remote_isn=i, local_isn=i ^ 7,
                                mss=1460, wscale=7,
                                created_at=i * 1e-4))
        # Half the handshakes complete (ACK arrives) ...
        if i & 1:
            if cache.complete(flow) is not None:
                completed += 1
        # ... and the reaper sweeps periodically.
        if (i & 0x3FF) == 0x3FF:
            cache.expire_older_than((i - 2048) * 1e-4)
    # The O(1) occupancy counter must agree with a full bucket walk —
    # churn is exactly the workload that would expose drift.
    if len(cache) != cache.occupancy_recount():
        raise AssertionError(
            f"syncache occupancy drifted: len()={len(cache)} but "
            f"recount={cache.occupancy_recount()}")
    return {
        "insertions": cache.insertions,
        "completions": completed,
        "evictions": cache.evictions,
        "expired": cache.expired,
        "resident": len(cache),
    }


@register("packet_churn",
          "handshake packet construction + on-wire size accounting",
          default_iterations=80_000)
def _bench_packet_churn(iterations: int) -> Dict[str, int]:
    from repro.net.packet import Packet, TCPFlags, TCPOptions
    from repro.puzzles.juels import (FlowBinding, JuelsBrainardScheme,
                                     ModeledSolver)
    from repro.puzzles.params import PuzzleParams

    binding = FlowBinding(src_ip=0x0A000002, dst_ip=0x0A000001,
                          src_port=43210, dst_port=80, isn=7)
    scheme = JuelsBrainardScheme(mode="modeled")
    params = PuzzleParams(k=2, m=17)
    challenge = scheme.make_challenge(params, binding, 1.0)
    solution = ModeledSolver().solve(challenge, random.Random(5))
    total_bytes = 0
    for i in range(iterations):
        syn = Packet(src_ip=binding.src_ip, dst_ip=binding.dst_ip,
                     src_port=binding.src_port, dst_port=80, seq=i,
                     flags=TCPFlags.SYN,
                     options=TCPOptions(mss=1460, wscale=7))
        synack = Packet(src_ip=binding.dst_ip, dst_ip=binding.src_ip,
                        src_port=80, dst_port=binding.src_port,
                        seq=i ^ 5, ack=i + 1,
                        flags=TCPFlags.SYN | TCPFlags.ACK,
                        options=TCPOptions(challenge=challenge))
        ack = Packet(src_ip=binding.src_ip, dst_ip=binding.dst_ip,
                     src_port=binding.src_port, dst_port=80, seq=i + 1,
                     ack=(i ^ 5) + 1, flags=TCPFlags.ACK,
                     options=TCPOptions(solution=solution))
        total_bytes += syn.size_bytes + synack.size_bytes + ack.size_bytes
    return {"packets": 3 * iterations, "wire_bytes": total_bytes}


@register("hist_record",
          "histogram record + quantile read throughput",
          default_iterations=400_000)
def _bench_hist_record(iterations: int) -> Dict[str, int]:
    from repro.obs.hist import HistogramRegistry

    registry = HistogramRegistry()
    record = registry.record
    # A deterministic latency-ish sweep across several decades, so the
    # log-bucketing path sees realistic spread rather than one bucket.
    for i in range(iterations):
        record("handshake_latency.bench",
               1e-5 * (1.0 + (i % 997)) * (1 + (i % 7)))
        if (i & 0xFFF) == 0xFFF:
            registry.hist("handshake_latency.bench").quantile(0.95)
    hist = registry.hist("handshake_latency.bench")
    checksum = sum(index * count for index, count
                   in sorted(hist.counts.items()))
    return {
        "records": hist.count,
        "buckets_hit": len(hist.counts),
        "bucket_checksum": checksum,
        "p95_bucket": hist.bucket_index(hist.quantile(0.95)),
    }


@register("fabric_fold",
          "cached 3-link path fold (clean + lossy + droptail phases)",
          default_iterations=100_000)
def _bench_fabric_fold(iterations: int) -> Dict[str, int]:
    from repro.net.fabric import FabricPath
    from repro.net.link import Link

    # The fig7 flood topology in miniature: an access link that can
    # droptail, a fast clean backbone hop, and a slow egress. The lossy
    # variant adds the loss-draw branch (per-packet rng.random()) the
    # flood suites exercise under fault injection.
    clean = FabricPath([
        Link(rate_bps=100e6, delay=5e-4, buffer_bytes=64 * 1024),
        Link(rate_bps=1e9, delay=2e-4),
        Link(rate_bps=10e6, delay=1e-3, buffer_bytes=16 * 1024),
    ])
    lossy = FabricPath([
        Link(rate_bps=100e6, delay=5e-4, buffer_bytes=64 * 1024),
        Link(rate_bps=1e9, delay=2e-4, loss_rate=0.02,
             rng=random.Random(20260807)),
        Link(rate_bps=10e6, delay=1e-3, buffer_bytes=16 * 1024),
    ])
    sizes = random.Random(20260808)
    delivered = dropped = 0
    now = 0.0
    clean_fold = clean.fold
    lossy_fold = lossy.fold
    for _ in range(iterations):
        size = sizes.randint(60, 1514)
        for fold in (clean_fold, lossy_fold):
            arrival = fold(now, size)
            if arrival is None:
                dropped += 1
            else:
                delivered += 1
        # Offered load deliberately exceeds the egress drain rate part
        # of the time, so the droptail branch is a steady fraction of
        # folds rather than a cold path.
        now += 1.1e-3 if (delivered & 7) == 0 else 2.0e-4
    links = list(clean.links) + list(lossy.links)
    return {
        "folds": 2 * iterations,
        "delivered": delivered,
        "dropped": dropped,
        "lost": sum(lk.packets_lost for lk in links),
        "droptailed": sum(lk.packets_dropped for lk in links),
        "bytes_sent": sum(lk.bytes_sent for lk in links),
    }


@register("sketch_update",
          "per-source attribution sketches: spoofed /32 SYNs and a "
          "skewed /16 stream through on_syn/on_drop",
          default_iterations=30_000)
def _bench_sketch_update(iterations: int) -> Dict[str, int]:
    import hashlib
    import json

    from repro.obs.sketch import SourceAttribution

    # Spoofed /32 sources almost never repeat, so nearly every update
    # recycles a slot (the hping3-style flood). The /16 stream draws
    # Pareto-skewed prefixes: its heavy keys mostly hit tracked slots,
    # so the eviction path also sees counts that grew since insertion.
    spoofed = SourceAttribution(prefix_bits=32, seed=1)
    skewed = SourceAttribution(prefix_bits=16, seed=2)
    rng = random.Random(20261017)
    getrandbits, pareto = rng.getrandbits, rng.paretovariate
    causes = ("ListenOverflows", "SynCacheRejects", "AdmissionDrops")
    for i in range(iterations):
        src = getrandbits(32)
        spoofed.on_syn(src)
        if i & 1:
            spoofed.on_drop(src, causes[i % 3])
        src = ((0x0A00 + min(int(pareto(1.2)), 0xF000)) << 16) \
            | (i & 0xFFFF)
        skewed.on_syn(src)
        if i % 3 == 0:
            skewed.on_drop(src, causes[i & 1])
    counters: Dict[str, int] = {"updates": 0}
    digest = hashlib.sha256()
    for name, attribution in (("spoofed", spoofed), ("skewed", skewed)):
        for dimension, summaries in (
                ("syns", [attribution.syns]),
                ("drops", [attribution.drops]),
                ("by_cause", list(attribution.drops_by_cause.values()))):
            counters[f"{name}_{dimension}_evictions"] = sum(
                summary.evictions for summary in summaries)
            counters["updates"] += sum(summary.total
                                       for summary in summaries)
        digest.update(json.dumps(attribution.snapshot(),
                                 sort_keys=True).encode())
    # 48 bits: manifests compare counters as floats, exact below 2**53.
    counters["snapshot_checksum"] = int.from_bytes(digest.digest()[:6],
                                                   "big")
    # No snapshot carries the Count-Min rows, so checksum point
    # estimates over fixed probes: the /16 prefixes the skewed stream
    # draws from and /32s spread over the whole address space.
    probes = (list(range(0x0A000000, 0x0A400000, 1 << 16))
              + list(range(0, 1 << 32, 1 << 26)))
    estimates = [[attribution.estimate_syns(probe) for probe in probes]
                 for attribution in (spoofed, skewed)]
    counters["sketch_estimate_checksum"] = int.from_bytes(
        hashlib.sha256(json.dumps(estimates).encode()).digest()[:6], "big")
    return counters


@register("client_handshake",
          "connect attempts from one host against a SYN-cookie listener "
          "on a two-host network: SYN, cookie SYN-ACK, ACK, accept-queue "
          "install",
          default_iterations=10_000)
def _bench_client_handshake(iterations: int) -> Dict[str, int]:
    from repro.hosts.cpu import CPU_CATALOG, SERVER_CPU
    from repro.hosts.host import Host
    from repro.metrics.throughput import HostThroughput
    from repro.net.addresses import AddressAllocator
    from repro.net.network import Network
    from repro.net.packet import FLAG_SYN, Packet, mss_options
    from repro.net.topology import deter_topology
    from repro.sim.engine import Engine
    from repro.tcp.connection import ClientConnConfig
    from repro.tcp.constants import DEFAULT_MSS, DefenseMode
    from repro.tcp.listener import DefenseConfig

    engine = Engine()
    network = Network(engine, deter_topology(1, 0))
    allocator = AddressAllocator()
    server = Host("server", allocator.allocate(), engine, network,
                  SERVER_CPU, random.Random(1))
    client = Host("client0", allocator.allocate(), engine, network,
                  next(iter(CPU_CATALOG.values())), random.Random(2))
    # Throughput meters on both ends, as every scenario installs them.
    for host in (server, client):
        network.add_throughput_tap(HostThroughput(host.address))
    listener = server.tcp.listen(80, DefenseConfig(
        mode=DefenseMode.SYNCOOKIES, backlog=1,
        accept_backlog=iterations + 1))
    # A spoofed half-open holds the one listen slot, so every attempt is
    # answered with a cookie (the connection flood's cookie path).
    listener.handle_syn(Packet(
        src_ip=0xC6336401, dst_ip=server.address, src_port=40000,
        dst_port=80, seq=1, flags=FLAG_SYN,
        options=mss_options(DEFAULT_MSS)))
    config = ClientConnConfig(syn_retries=0)
    connect, schedule = client.tcp.connect, engine.schedule

    def attempt(remaining: int) -> None:
        connection = connect(server.address, 80, config)
        # The client side lets go once established, freeing its port.
        connection.on_established = lambda conn: conn.abort()
        if remaining > 1:
            schedule(1e-4, attempt, remaining - 1)

    attempt(iterations)
    engine.run()
    return {
        "attempts": iterations,
        "established": listener.stats.established_total(),
        "packets_delivered": network.packets_delivered,
        "events_processed": engine.events_processed,
    }


@register("syn_ingress",
          "spoofed SYNs from one flooder into a SYN-cookie listener whose "
          "one listen slot is held: the bot's draw, the path fold, "
          "delivery, triage, and a blackholed cookie SYN-ACK per SYN",
          default_iterations=20_000)
def _bench_syn_ingress(iterations: int) -> Dict[str, int]:
    from repro.hosts.attacker import AttackerConfig, SynFlooder
    from repro.hosts.cpu import CPU_CATALOG, SERVER_CPU
    from repro.hosts.host import Host
    from repro.metrics.throughput import HostThroughput
    from repro.net.addresses import AddressAllocator
    from repro.net.network import Network
    from repro.net.packet import FLAG_SYN, Packet, mss_options
    from repro.net.topology import deter_topology
    from repro.sim.engine import Engine
    from repro.tcp.constants import DEFAULT_MSS, DefenseMode
    from repro.tcp.listener import DefenseConfig

    engine = Engine()
    network = Network(engine, deter_topology(0, 1))
    allocator = AddressAllocator()
    server = Host("server", allocator.allocate(), engine, network,
                  SERVER_CPU, random.Random(1))
    bot = Host("attacker0", allocator.allocate(), engine, network,
               next(iter(CPU_CATALOG.values())), random.Random(3))
    # Throughput meters on both ends, as every scenario installs them.
    for host in (server, bot):
        network.add_throughput_tap(HostThroughput(host.address))
    listener = server.tcp.listen(80, DefenseConfig(
        mode=DefenseMode.SYNCOOKIES, backlog=1))
    # A spoofed half-open holds the one listen slot, so every SYN is
    # answered with a cookie toward its spoofed source.
    listener.handle_syn(Packet(
        src_ip=0xC6336401, dst_ip=server.address, src_port=40000,
        dst_port=80, seq=1, flags=FLAG_SYN,
        options=mss_options(DEFAULT_MSS)))
    rate = 10_000.0
    flooder = SynFlooder(bot, AttackerConfig(server_ip=server.address,
                                             rate=rate))
    flooder.start()
    # Fires land at k / rate: stop between the last one and the next,
    # then let the SYNs in flight arrive.
    engine.run(until=(iterations - 0.5) / rate)
    flooder.stop()
    engine.run()
    values = server.mib._values
    return {
        "syns_sent": flooder.stats.syns_sent,
        "syns_received": values.get("SynsRecv", 0),
        "cookies_sent": values.get("SynCookiesSent", 0),
        "packets_blackholed": network.packets_blackholed,
        "events_processed": engine.events_processed,
        # Pins the bot's draw stream.
        "next_bot_draw": bot.rng.getrandbits(32),
    }


def self_check(result: MicroResult) -> None:
    """Sanity bounds every freshly-run result must satisfy."""
    if result.best_wall <= 0.0 or not math.isfinite(result.best_wall):
        raise ExperimentError(
            f"micro-benchmark {result.name!r} produced a non-positive "
            f"wall time {result.best_wall!r}")
    if not result.counters:
        raise ExperimentError(
            f"micro-benchmark {result.name!r} returned no work counters")
