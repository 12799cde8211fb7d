#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in one command.
#
#   ./scripts/check.sh            # full suite
#   ./scripts/check.sh -m 'not slow'   # extra pytest args pass through
#
# Steps:
#   1. byte-compile the whole package (catches syntax errors everywhere,
#      including modules the tests do not import);
#   2. the tier-1 pytest suite;
#   3. an observability smoke run: a tiny traced scenario through the CLI,
#      checking the SNMP counters are wired end to end;
#   4. a bench-compare smoke: a tiny run's manifest must self-compare
#      clean, and a perturbed-quantile copy must fail the gate;
#   5. a micro-bench smoke: the `perf micro` harness at a tiny scale must
#      self-compare clean through `bench-compare --prefix micro_`, and a
#      perturbed per-op p95 must fail the gate; the manifests land in
#      benchmarks/output/ for the CI artifact upload; then a profiler
#      smoke: `perf profile` on the default puzzles SYN flood must book
#      self time to the net, tcp.listener and puzzles layers, and every
#      flamegraph line must start at a layer;
#   6. a scheduler regression guard: the two engine micro-benchmarks
#      (timer_churn, engine_dispatch) run on the adopted engine and on
#      the reference heap, interleaved in one process, and the adopted
#      engine must keep its measured lead over the heap — a ratio, so it
#      holds on slow hosts and fails when the compiled wheel is lost or
#      gets markedly slower;
#   7. a chaos smoke: a small fault matrix with the runtime invariant
#      checker attached must pass, and a deliberately corrupted queue
#      accounting must make the checker raise (the negative control);
#   8. a sustained-overload smoke: the graceful-degradation ladder under
#      a 10x-capacity SYN flood, one cell per syncache overflow policy,
#      each gated on bounded memory, bounded benign p99, and full
#      watchdog recovery; the overload series land in
#      benchmarks/output/overload/ for the CI artifact upload, and a
#      ladder-disabled manifest must stay free of overload blocks;
#   9. a streaming-telemetry smoke: two same-seed scenarios with the
#      sim-time sampler attached must produce byte-identical series
#      snapshots, a tiny `sweep --live` must leave a parseable status
#      file in benchmarks/output/ (the CI artifact), and `top --once`
#      must render it;
#  10. the paper claims: `validate` re-runs the 14 machine-checked claims
#      of the reproduction gate at reduced scale and exits non-zero when
#      any claim fails, so a refactor that flips a paper outcome fails
#      here;
#  11. the fast examples: quickstart, iot_botnet, nash_tuning,
#      lossy_links and capture_traffic (its pcap goes to the scratch
#      directory) must run to completion; quickstart and iot_botnet read
#      the run-level queries off live scenario results;
#  12. the benchmark's correctness gate: one short `perfbench/run.py` run
#      per workload at seed 1 must pass every cell's checks, including
#      the model digests pinned in perfbench/digests.json, so a speed-up
#      that changes what the simulator computes fails here; a run with a
#      fault injected into one cell must fail (the negative control).

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== compileall =="
python -m compileall -q src

echo "== tier-1 tests =="
python -m pytest -x -q "$@"

echo "== observability smoke run =="
out=$(python -m repro.cli trace --duration 4 --clients 1 --attackers 0 \
      --attack none --flows 1)
head -n 12 <<<"$out"
grep -q "SYN segments arriving" <<<"$out" || {
    echo "smoke run: SynsRecv counter missing from the MIB dump" >&2
    exit 1
}
grep -q "server handshakes:" <<<"$out" || {
    echo "smoke run: drop-attribution summary missing" >&2
    exit 1
}

echo "== bench-compare smoke =="
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT
# One tiny run -> a baseline manifest, an identical current copy, and a
# copy with a perturbed latency quantile. Also drops the manifest into
# benchmarks/output/ so CI always has an artifact to upload.
python - "$smokedir" <<'PYEOF'
import json, pathlib, shutil, sys

from repro.experiments.scenario import ScenarioConfig
from repro.experiments.summary import run_scenario_summary
from repro.obs.manifest import summary_payload, write_manifest

root = pathlib.Path(sys.argv[1])
summary = run_scenario_summary(ScenarioConfig(
    time_scale=0.01, n_clients=2, n_attackers=2, attack_style="syn"))
payload = {"name": "smoke", **summary_payload(summary)}
write_manifest(root / "base" / "BENCH_smoke.json", payload)
shutil.copytree(root / "base", root / "cur")
write_manifest(pathlib.Path("benchmarks/output/BENCH_smoke.json"), payload)

bad_path = root / "bad" / "BENCH_smoke.json"
bad = json.loads((root / "base" / "BENCH_smoke.json").read_text())
quantiles = bad["histograms"]["handshake_latency.client"]["quantiles"]
quantiles["p95"] = quantiles["p95"] * 10.0
bad_path.parent.mkdir(parents=True)
bad_path.write_text(json.dumps(bad))
PYEOF
python -m repro.cli bench-compare "$smokedir/base" "$smokedir/cur" || {
    echo "bench-compare smoke: self-compare should pass" >&2
    exit 1
}
if python -m repro.cli bench-compare "$smokedir/base" "$smokedir/bad" \
        > /dev/null; then
    echo "bench-compare smoke: perturbed quantile should fail" >&2
    exit 1
fi

echo "== micro-bench smoke =="
# A tiny full-registry run -> micro manifests. The gate compares an
# identical copy (self-compare must pass regardless of wall noise), then
# a perturbed per-op p95 copy (must fail). The manifests also land in
# benchmarks/output/ so CI uploads them next to the scenario manifests.
python -m repro.cli perf micro --scale 0.05 --repeats 2 \
    --output "$smokedir/micro/base" > /dev/null
cp -r "$smokedir/micro/base" "$smokedir/micro/cur"
cp "$smokedir/micro/base"/BENCH_micro_*.json benchmarks/output/
python -m repro.cli bench-compare --prefix micro_ "$smokedir/micro/base" \
    "$smokedir/micro/cur" || {
    echo "micro smoke: self-compare should pass" >&2
    exit 1
}
cp -r "$smokedir/micro/base" "$smokedir/micro/bad"
python - "$smokedir/micro/bad/BENCH_micro_timer_churn.json" <<'PYEOF'
import json, pathlib, sys

path = pathlib.Path(sys.argv[1])
body = json.loads(path.read_text())
body["histograms"]["micro_op.timer_churn"]["quantiles"]["p95"] *= 10.0
path.write_text(json.dumps(body))
PYEOF
if python -m repro.cli bench-compare --prefix micro_ \
        "$smokedir/micro/base" "$smokedir/micro/bad" > /dev/null; then
    echo "micro smoke: perturbed per-op p95 should fail" >&2
    exit 1
fi
# Layer profiler + flamegraph smoke on a tiny puzzles SYN flood.
python -m repro.cli perf profile --time-scale 0.01 --clients 2 \
    --attackers 1 --flame "$smokedir/flame.txt" \
    -o "$smokedir/profile" > /dev/null
python - "$smokedir" <<'PYEOF'
import json, pathlib, sys

from repro.obs.profile import LAYERS, OTHER

root = pathlib.Path(sys.argv[1])
layers = json.loads((root / "profile" / "BENCH_profile_syn_puzzles.json")
                    .read_text())["profile"]["layers"]
if set(layers) != set(LAYERS) | {OTHER}:
    sys.exit(f"perf smoke: layer table has {sorted(layers)}")
idle = [name for name in ("net", "tcp.listener", "puzzles")
        if not layers[name]["self_seconds"] > 0]
if idle:
    sys.exit(f"perf smoke: no self time booked to {', '.join(idle)}")
lines = (root / "flame.txt").read_text().splitlines()
strays = [line for line in lines
          if line.split(";", 1)[0] not in layers]
if not lines or strays:
    sys.exit(f"perf smoke: {len(lines)} flamegraph lines, "
             f"{len(strays)} not rooted at a layer")
print(f"perf smoke: {len(layers)} layers, {len(lines)} flamegraph lines")
PYEOF

echo "== scheduler regression guard =="
# Ops/s of the adopted engine over ops/s of the reference heap, both
# measured here, round by round, each side keeping its best round: host
# speed cancels out of the ratio, and interleaving exposes both sides to
# the same swings of a shared host (separate processes seconds apart
# read anywhere from 3.7x to 14x). On a shared 2-vCPU VM (Python 3.11)
# an untouched tree read 6.8x-11.7x over 20 runs, a wheel with doubled
# per-event cost 3.4x-5.2x, and a forced heap 0.9x-1.0x; the floor sits
# between. Whether the wheel is expected follows from whether the
# compiled core builds on this host, not from its adoption, so a core
# that stops being adopted fails here instead of skipping.
python - <<'PYEOF'
import os
import sys

import repro.sim.engine as engine_mod
from repro.obs.microbench import run_benchmark
from repro.sim.accel import load_cengine
from repro.sim.reference import ReferenceHeapEngine

FLOOR = 5.5
ROUNDS = 7
SCALE = 0.5

if os.environ.get("REPRO_ENGINE", "").strip().lower() == "py":
    print("scheduler guard: REPRO_ENGINE=py runs the heap by request, "
          "skipping")
    sys.exit(0)
try:
    load_cengine()
except Exception as exc:
    print(f"scheduler guard: the compiled core does not build here "
          f"({type(exc).__name__}), skipping")
    sys.exit(0)
adopted = engine_mod.Engine
lost = []
for name in ("timer_churn", "engine_dispatch"):
    best = {}
    for _ in range(ROUNDS):
        for side, engine_cls in (("adopted", adopted),
                                 ("heap", ReferenceHeapEngine)):
            engine_mod.Engine = engine_cls
            try:
                ops = run_benchmark(name, repeats=1,
                                    scale=SCALE).ops_per_second
            finally:
                engine_mod.Engine = adopted
            best[side] = max(best.get(side, 0.0), ops)
    ratio = best["adopted"] / best["heap"]
    print(f"scheduler guard: {name} {best['adopted']:,.0f} ops/s adopted "
          f"vs {best['heap']:,.0f} heap = {ratio:.2f}x (floor {FLOOR}x)")
    if ratio < FLOOR:
        lost.append(name)
if lost:
    sys.exit(f"scheduler guard: {', '.join(lost)} fell below {FLOOR}x "
             f"the reference heap — the compiled wheel was lost or slowed")
PYEOF

echo "== chaos smoke =="
# A small fault matrix with invariants on every cell. --output drops the
# resilience manifest where CI picks up benchmark artifacts.
chaos_out=$(python -m repro.cli chaos --time-scale 0.01 --clients 2 \
      --attackers 1 --faults loss-burst corruption \
      --output benchmarks/output)
echo "$chaos_out" | tail -n 4
grep -q "zero violations" <<<"$chaos_out" || {
    echo "chaos smoke: invariant summary line missing" >&2
    exit 1
}
# Negative control: seeded queue-accounting corruption must be *caught*.
python - <<'PYEOF'
import sys

sys.path.insert(0, ".")
from tests.conftest import MiniNet

from repro.faults import InvariantChecker, InvariantViolation
from repro.tcp.listener import DefenseConfig

net = MiniNet()
listener = net.server.tcp.listen(80, DefenseConfig())
net.client.tcp.connect(net.server.address, 80)
net.run(until=1.0)
checker = InvariantChecker(listener)
checker.check_now()                      # clean state must audit clean
listener.listen_queue.admitted += 1      # seed a bookkeeping bug
try:
    checker.check_now()
except InvariantViolation as exc:
    print(f"negative control: caught {exc.invariant!r} as expected")
else:
    sys.exit("chaos smoke: checker missed seeded queue corruption")
PYEOF

echo "== sustained-overload smoke =="
# The full ladder — budgeted sharded syncache, syncookie fallback,
# admission control, watchdog — against a flood ~10x the cache budget.
# The command itself exits non-zero if any cell fails its verdict
# (bounded memory, bounded benign p99, OVERLOAD reached and walked back
# to NORMAL, every establishment MIB-attributed to cache or fallback).
python -m repro.cli chaos --overload --time-scale 0.05 --clients 2 \
      --attackers 2 --output benchmarks/output/overload || {
    echo "overload smoke: sustained-overload matrix failed" >&2
    exit 1
}
# Assert the manifest records what the gate claims: memory bounded,
# recovery complete, and a non-empty repro_overload_state series per cell.
python - <<'PYEOF'
import json, sys

body = json.loads(
    open("benchmarks/output/overload/BENCH_chaos.json").read())
verdicts = body["overload_verdicts"]
for label, verdict in sorted(verdicts.items()):
    if not verdict["checks"]["memory_bounded"]:
        sys.exit(f"overload smoke: {label} exceeded its memory budget")
    if not verdict["checks"]["recovered_to_normal"]:
        sys.exit(f"overload smoke: {label} did not recover to NORMAL")
for label, block in sorted(body["overload"].items()):
    if not block["series"]["samples"]:
        sys.exit(f"overload smoke: {label} uploaded an empty "
                 "repro_overload_state series")
print(f"overload smoke: {len(verdicts)} cells bounded and recovered")
PYEOF
# Ladder-disabled runs must not grow an overload block — the manifest
# written by the bench-compare smoke above ran without config.overload.
python - <<'PYEOF'
import json, sys

body = json.loads(open("benchmarks/output/BENCH_smoke.json").read())
if "overload" in body:
    sys.exit("overload smoke: ladder-disabled manifest grew an "
             "overload block — detached runs are no longer identical")
print("overload smoke: ladder-disabled manifest clean")
PYEOF

echo "== streaming telemetry smoke =="
# Two same-seed runs with the sampler and the attribution sketches
# attached must produce byte-identical telemetry snapshots — the
# determinism contract the manifests and the sweep cache both rely on.
python - <<'PYEOF'
import json
import sys

from repro.experiments.scenario import ScenarioConfig
from repro.obs import TelemetrySpec

from repro.experiments.summary import run_scenario_summary

config = ScenarioConfig(
    seed=11, time_scale=0.02, n_clients=2, n_attackers=2,
    attack_style="syn",
    telemetry=TelemetrySpec(attribution=True))
snapshots = []
for _ in range(2):
    summary = run_scenario_summary(config)
    snapshots.append(json.dumps(
        {"timeseries": {name: summary.timeseries[name].as_payload()
                        for name in sorted(summary.timeseries)},
         "attribution": summary.attribution},
        sort_keys=True))
if not snapshots[0]:
    sys.exit("telemetry smoke: sampler produced no series")
if snapshots[0] != snapshots[1]:
    sys.exit("telemetry smoke: same-seed runs disagree — the sampler "
             "is not deterministic")
print("telemetry smoke: same-seed snapshots byte-identical "
     f"({len(snapshots[0])} bytes)")
PYEOF
# A tiny monitored sweep writes the live status file where CI picks up
# artifacts, then `top --once` must render it (plain, exit 0).
python -m repro.cli sweep iot --time-scale 0.01 --replicates 2 \
    --quiet --status-file benchmarks/output/sweep_status.json \
    > /dev/null
top_out=$(python -m repro.cli top --once \
    --status-file benchmarks/output/sweep_status.json)
head -n 3 <<<"$top_out"
grep -q "tcp-puzzles sweep" <<<"$top_out" || {
    echo "telemetry smoke: top --once did not render the sweep header" >&2
    exit 1
}
grep -q "cells 2/2 done" <<<"$top_out" || {
    echo "telemetry smoke: top --once shows an unfinished sweep" >&2
    exit 1
}

echo "== paper claims =="
python -m repro.cli validate

echo "== examples =="
for example in quickstart iot_botnet nash_tuning lossy_links; do
    python "examples/$example.py" > /dev/null || {
        echo "examples: $example.py failed" >&2
        exit 1
    }
done
python examples/capture_traffic.py "$smokedir/handshake.pcap" > /dev/null
[ -s "$smokedir/handshake.pcap" ] || {
    echo "examples: capture_traffic.py wrote no pcap" >&2
    exit 1
}
echo "examples: 5 ran"

echo "== perfbench digests =="
# Timings are not gated here, only correctness: every cell must match
# its pinned seed-1 digest. Run records go to perfbench/out/ (ignored).
for workload in syn_flood conn_flood overload_ladder; do
    python perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
        --trace 0 > /dev/null || {
        echo "perfbench: $workload failed its checks at seed 1" >&2
        exit 1
    }
    echo "perfbench: $workload correct, digests as pinned"
done
if python perfbench/run.py --workload conn_flood --seed 1 --seconds 1 \
        --trace 0 --inject-fault cookies > /dev/null 2>&1; then
    echo "perfbench: a fault injected into the cookies cell passed" >&2
    exit 1
fi
echo "perfbench: injected fault caught"

echo "== all checks passed =="
