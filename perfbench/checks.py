"""Correctness checks run on every benchmark cell.

Two kinds:

* **Identities** hold on any seed: the host MIB agrees with the
  listener's own ``ListenerStats`` (one increment site per event), and
  the disjoint drop-cause counters add up to the total the listener's
  books arrive at.
* **Digest**: a sha256 over the cell's model outputs — MIB counters,
  listener stats, tracker outcomes and sim-time histograms. Wall-clock
  fields and engine event counts stay out of it, so the digest does not
  depend on which engine or fabric core ran, and a change that removes
  events without changing the model keeps it. Digests are pinned for the
  default seed only (``digests.json``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List


def identity_failures(summary) -> List[str]:
    """Counter/stat identities that do not hold for one cell summary."""
    from repro.obs import drop_attribution, established_total

    server = summary.counters.get("server", {})
    stats = summary.listener_stats

    def count(name: str) -> int:
        return server.get(name, 0) or 0

    pairs = (
        ("SynsRecv", stats.syns_received),
        ("SynAcksSent", stats.synacks_plain),
        ("PuzzlesIssued", stats.synacks_challenge),
        ("SynCookiesSent", stats.synacks_cookie),
        ("SynCookiesFailed", stats.cookies_invalid),
        ("ListenOverflows", stats.syn_drops_queue_full),
        ("HalfOpenExpired", stats.half_open_expired),
        ("AcceptOverflows", stats.accept_drops_full),
        ("DeceptionAcksIgnored", stats.acks_ignored_queue_full),
        ("AdmissionDrops", stats.syns_rejected_admission),
        ("SynCacheCookieFallback", stats.synacks_cookie_fallback),
    )
    failures = [f"{name}={count(name)} != stats {value}"
                for name, value in pairs if count(name) != value]
    invalid = (count("PuzzlesRejected") + count("ReplaysBlocked")
               + count("PlainAcksIgnored"))
    if invalid != stats.solutions_invalid:
        failures.append(f"invalid solutions {invalid} != stats "
                        f"{stats.solutions_invalid}")
    if established_total(server) != stats.established_total():
        failures.append(f"established {established_total(server)} != "
                        f"stats {stats.established_total()}")
    drops = sum(drop_attribution(server).values())
    booked = (stats.syn_drops_queue_full + stats.half_open_expired
              + stats.accept_drops_full + stats.acks_ignored_queue_full
              + stats.solutions_invalid + stats.cookies_invalid
              + stats.syns_rejected_admission
              + count("SynCacheEvictions") + count("SynCacheMisses")
              + count("SynCacheRejects"))
    if drops != booked:
        failures.append(f"drop causes sum {drops} != booked {booked}")
    if stats.syns_received <= 0:
        failures.append("listener received no SYNs")
    return failures


def model_outputs(summary) -> Dict[str, object]:
    """The engine-independent model outputs of one cell."""
    from repro.runner.export import to_jsonable

    connections = summary.connections
    return {
        "counters": to_jsonable(summary.counters),
        "listener_stats": {name: getattr(summary.listener_stats, name)
                           for name in sorted(vars(summary.listener_stats))},
        "tracker": {label: connections.counts(label)
                    for label in connections.labels()},
        "histograms": {name: summary.histograms[name].as_payload()
                       for name in sorted(summary.histograms)},
    }


def digest(summary) -> str:
    blob = json.dumps(model_outputs(summary), sort_keys=True,
                      separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()
