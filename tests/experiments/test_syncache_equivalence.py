"""Scenario-level eviction-policy equivalence: new syncache vs seed.

The sharded, policy-pluggable :class:`~repro.tcp.syncache.SynCache` must
be *byte-identical* to the pre-rework implementation on its default
policy — not just unit-equivalent (tests/tcp/test_syncache.py covers
that) but through a whole fig7-style SYN-flood cell: same MIB counters,
same connection outcomes, same exported JSONL, on both the Python and
the compiled engine core.

Each probe runs in a subprocess (REPRO_ENGINE is read at import time)
and either uses the stock cache or monkeypatches the seed-era
implementation into the listener before the scenario builds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.sim.engine import CEngine

_PROBE = r"""
import hashlib, json, sys

impl = sys.argv[1]            # "new" | "legacy"

if impl == "legacy":
    # The seed-era SynCache, verbatim semantics (flat buckets, global
    # counters, oldest-per-bucket eviction, same MIB increments) — the
    # one difference is that insert() reports success, which the seed
    # listener never checked and the new one does.
    import hashlib as _hashlib
    from collections import OrderedDict

    class LegacySynCache:
        def __init__(self, bucket_count=512, bucket_limit=30,
                     secret=b"syncache"):
            self.bucket_count = bucket_count
            self.bucket_limit = bucket_limit
            self._secret = secret
            self._buckets = [OrderedDict()
                             for _ in range(bucket_count)]
            self.evictions = 0
            self.insertions = 0
            self.completions = 0
            self.expired = 0
            self.mib = None

        def _bucket_for(self, flow):
            material = (self._secret + flow[0].to_bytes(4, "big")
                        + flow[1].to_bytes(2, "big")
                        + flow[2].to_bytes(2, "big"))
            digest = _hashlib.sha256(material).digest()
            return self._buckets[int.from_bytes(digest[:4], "big")
                                 % self.bucket_count]

        def __len__(self):
            return sum(len(b) for b in self._buckets)

        @property
        def capacity(self):
            return self.bucket_count * self.bucket_limit

        def insert(self, entry):
            bucket = self._bucket_for(entry.flow)
            if entry.flow in bucket:
                return True
            if len(bucket) >= self.bucket_limit:
                bucket.popitem(last=False)
                self.evictions += 1
                if self.mib is not None:
                    self.mib.incr("SynCacheEvictions")
            bucket[entry.flow] = entry
            self.insertions += 1
            if self.mib is not None:
                self.mib.incr("SynCacheAdded")
            return True

        def complete(self, flow):
            entry = self._bucket_for(flow).pop(flow, None)
            if entry is not None:
                self.completions += 1
                if self.mib is not None:
                    self.mib.incr("SynCacheHits")
            return entry

        def expire_older_than(self, cutoff):
            reaped = 0
            for bucket in self._buckets:
                stale = [flow for flow, e in bucket.items()
                         if e.created_at < cutoff]
                for flow in stale:
                    del bucket[flow]
                    reaped += 1
            self.expired += reaped
            if reaped and self.mib is not None:
                self.mib.incr("SynCacheExpired", reaped)
            return reaped

        def oldest_created_at(self):
            oldest = None
            for bucket in self._buckets:
                for entry in bucket.values():
                    if oldest is None or entry.created_at < oldest:
                        oldest = entry.created_at
            return oldest

    import repro.tcp.listener as listener_mod
    listener_mod.SynCache = LegacySynCache

from repro.experiments.scenario import ScenarioConfig
from repro.experiments.summary import run_scenario_summary
from repro.runner.export import cells_to_jsonl
from repro.tcp.constants import DefenseMode

summary = run_scenario_summary(ScenarioConfig(
    time_scale=0.02, attack_style="syn",
    defense=DefenseMode.SYNCACHE))
engine_keys = ("events_scheduled", "events_processed",
               "events_cancelled", "sim_seconds")
jsonl = cells_to_jsonl([summary])
print(json.dumps({
    "counters": summary.counters,
    "engine": {k: summary.engine_stats[k] for k in engine_keys},
    "connections": {lbl: summary.connections.counts(lbl)
                    for lbl in summary.connections.labels()},
    "jsonl_sha256": hashlib.sha256(jsonl.encode()).hexdigest(),
}, sort_keys=True))
"""

ENGINE_MODES = ["py"]
if CEngine is not None:
    ENGINE_MODES.append("auto")


def _probe(impl: str, engine_mode: str) -> dict:
    env = dict(os.environ, REPRO_ENGINE=engine_mode)
    proc = subprocess.run([sys.executable, "-c", _PROBE, impl],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.slow
@pytest.mark.parametrize("engine_mode", ENGINE_MODES)
def test_default_policy_matches_seed_cache(engine_mode):
    """A fig7-style SYNCACHE flood cell is byte-identical whether it
    runs on the reworked cache (default policy) or the seed one."""
    new = _probe("new", engine_mode)
    legacy = _probe("legacy", engine_mode)
    assert new == legacy


@pytest.mark.slow
@pytest.mark.skipif(CEngine is None,
                    reason="compiled engine unavailable on this host")
def test_reworked_cache_identical_across_engine_cores():
    """The reworked cache keeps the cross-core determinism contract."""
    assert _probe("new", "py") == _probe("new", "auto")
