"""Micro-benchmarks of the substrate hot paths.

Not paper figures — these keep the simulator's performance visible (§7's
solution-flood analysis turns on the server's hashes/second, benchmarked
here for real).

The substrate workloads (timer churn, codec roundtrips, syncache churn,
packet construction, histogram recording, engine dispatch) are defined
once in :mod:`repro.obs.microbench` and shared with ``tcp-puzzles perf
micro``: the pytest-benchmark tests below time the *registered* workload
functions, and :func:`test_micro_manifests` runs the whole registry
through the self-timing harness so the numbers land as versioned
``benchmarks/output/BENCH_micro_*.json`` manifests instead of staying
pytest-only terminal output. The raw-crypto benchmarks (hash rate,
real solve/verify) stay local — they measure the machine, not the
package's hot paths.
"""

import random

import pytest

from repro.crypto.hashcash import find_partial_preimage
from repro.crypto.sha256 import sha256
from repro.obs.microbench import (
    REGISTRY,
    render_results,
    run_micro,
    self_check,
    write_micro_manifests,
)
from repro.puzzles.juels import (
    FlowBinding,
    JuelsBrainardScheme,
    RealSolver,
)
from repro.puzzles.params import PuzzleParams
from repro.sim.engine import Engine

BINDING = FlowBinding(src_ip=0x0A000002, dst_ip=0x0A000001,
                      src_port=43210, dst_port=80, isn=7)

#: pytest-benchmark iteration counts per registered workload — small
#: enough to keep the benchmark session quick; ``perf micro`` runs the
#: full default_iterations.
BENCH_ITERATIONS = {
    "timer_churn": 20_000,
    "engine_dispatch": 30_000,
    "puzzle_codec": 5_000,
    "syncache_churn": 10_000,
    "packet_churn": 5_000,
    "hist_record": 40_000,
}


# ----------------------------------------------------------------------
# Raw crypto (machine-level rates; not registry workloads)
# ----------------------------------------------------------------------
def test_sha256_rate(benchmark):
    """Raw hash rate of this machine (cf. Figure 3(a) and §7's 10.8 M/s)."""
    payload = b"\x5a" * 64
    benchmark(sha256, payload)


def test_challenge_generation(benchmark):
    """g(p) = 1 hash: challenge generation must be cheap (§4.1)."""
    scheme = JuelsBrainardScheme(mode="real")
    params = PuzzleParams(k=2, m=17)
    benchmark(scheme.make_challenge, params, BINDING, 1.0)


def test_real_solve_m12(benchmark):
    """Actual brute force at m=12 (≈2048 expected hashes per solution)."""
    scheme = JuelsBrainardScheme(mode="real")
    challenge = scheme.make_challenge(PuzzleParams(k=1, m=12), BINDING,
                                      1.0)
    rng = random.Random(5)
    benchmark.pedantic(RealSolver().solve, args=(challenge, rng),
                       rounds=3, iterations=1)


def test_real_verification(benchmark):
    """d(p) = 1 + k/2 hashes: verification must stay cheap (§4.1)."""
    scheme = JuelsBrainardScheme(mode="real")
    params = PuzzleParams(k=2, m=10)
    challenge = scheme.make_challenge(params, BINDING, 1.0)
    solution = RealSolver().solve(challenge, random.Random(5))
    result = benchmark(scheme.verify, solution, BINDING, 1.5, params)
    assert result.ok


def test_brute_force_hash_rate(benchmark):
    """Sustained hashcash search rate (the attacker's real-world cost)."""
    puzzle = b"\x42" * 8

    def solve():
        return find_partial_preimage(puzzle, 0, 10, 8)

    solution, attempts = benchmark(solve)
    assert attempts >= 1


# ----------------------------------------------------------------------
# Registered substrate workloads, timed by pytest-benchmark
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(BENCH_ITERATIONS))
def test_registered_workload(benchmark, name):
    """pytest-benchmark view of each registry workload (same code path
    ``perf micro`` manifests; numbers here are for interactive runs)."""
    bench = REGISTRY[name]
    counters = benchmark(bench.fn, BENCH_ITERATIONS[name])
    assert counters, f"workload {name} returned no work counters"


def test_handshake_throughput(benchmark):
    """Stock three-way handshakes/second end to end (tracing off).

    The observability acceptance bar: with tracepoints at their default
    (disabled), the counters-only instrumentation must cost the hot path
    <5% — this benchmark is where that shows up.
    """
    from repro.hosts.cpu import CPU_CATALOG, SERVER_CPU
    from repro.hosts.host import Host
    from repro.net.addresses import AddressAllocator
    from repro.net.network import Network
    from repro.net.topology import deter_topology
    from repro.sim.rng import RngStreams

    def run_handshakes():
        engine = Engine()
        streams = RngStreams(7)
        network = Network(engine, deter_topology(1, 0))
        allocator = AddressAllocator()
        server = Host("server", allocator.allocate(), engine, network,
                      SERVER_CPU, streams.get("server"))
        client = Host("client0", allocator.allocate(), engine, network,
                      next(iter(CPU_CATALOG.values())),
                      streams.get("client0"))
        listener = server.tcp.listen(80)
        for i in range(200):
            engine.schedule_at(i * 0.001, client.tcp.connect,
                               server.address, 80)
        engine.run(until=5.0)
        return listener.stats.established_total()

    established = benchmark(run_handshakes)
    assert established == 200


# ----------------------------------------------------------------------
# The manifest leg: registry -> BENCH_micro_*.json
# ----------------------------------------------------------------------
def test_micro_manifests(output_dir):
    """Run the full registry through the self-timing harness and persist
    one ``BENCH_micro_<name>.json`` per benchmark — the files the
    ``tcp-puzzles bench-compare --prefix micro_`` / CI gate diff."""
    from benchmarks.conftest import emit

    results = run_micro(repeats=3, scale=0.25)
    for result in results:
        self_check(result)
    paths = write_micro_manifests(results, output_dir)
    assert len(paths) == len(REGISTRY)
    assert any(path.name == "BENCH_micro_timer_churn.json"
               for path in paths)
    emit("micro_suite", render_results(results))
