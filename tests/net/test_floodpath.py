"""Lockstep pins for the flyweight flood fast paths.

The fast paths in :mod:`repro.net.floodpath` precompute on-wire sizes
and hash pre-images instead of building packets and dataclasses. These
tests pin every precomputed shape to the real object it stands in for,
so a change to the packet model, the challenge codec or the puzzle
scheme that forgets the fast path fails here instead of as a byte
mismatch deep inside the differential suite.
"""

import dataclasses
import json
import random
import subprocess
import sys

import pytest

from repro.crypto.sha256 import HashCounter
from repro.net import fabric
from repro.net.fabric import (CFabricPath, PyFabricPath, _fabric_gate,
                              fold_links)
from repro.net.floodpath import (MSS_SYNACK_SIZE, ReplyFastPath,
                                 challenge_synack_size, plain_synack_size)
from repro.net.link import Link
from repro.net.packet import (FLAG_SYN, FLAG_SYNACK, Packet, TCPOptions,
                              mss_options)
from repro.puzzles.juels import (FlowBinding, JuelsBrainardScheme,
                                 issue_timestamp_ms)
from repro.puzzles.params import PuzzleParams
from repro.tcp.constants import DEFAULT_MSS, DefenseMode
from repro.tcp.listener import DefenseConfig
from tests.conftest import MiniNet


def _synack(options) -> Packet:
    return Packet(src_ip=0x0A000001, dst_ip=0xAC100001, src_port=80,
                  dst_port=40000, seq=7, ack=8, flags=FLAG_SYNACK,
                  options=options)


class TestSizePins:
    def test_cookie_synack_size_matches_interned_packet(self):
        packet = _synack(mss_options(DEFAULT_MSS))
        assert MSS_SYNACK_SIZE == packet.size_bytes

    @pytest.mark.parametrize("wscale", [None, 0, 7, 14])
    def test_plain_synack_size_matches_packet(self, wscale):
        packet = _synack(TCPOptions(mss=DEFAULT_MSS, wscale=wscale))
        assert plain_synack_size(wscale) == packet.size_bytes

    @pytest.mark.parametrize("params", [
        PuzzleParams(k=1, m=8),
        PuzzleParams(k=2, m=17),
        PuzzleParams(k=3, m=12, length_bytes=5),   # odd → padded block
        PuzzleParams(k=1, m=20, length_bytes=16),
    ])
    def test_challenge_synack_size_matches_packet(self, params):
        scheme = JuelsBrainardScheme()
        binding = FlowBinding(src_ip=0xAC100001, dst_ip=0x0A000001,
                              src_port=40000, dst_port=80, isn=99)
        challenge = scheme.make_challenge(params, binding, 1.25)
        packet = _synack(TCPOptions(mss=DEFAULT_MSS, challenge=challenge))
        assert challenge_synack_size(params) == packet.size_bytes


class TestIssuePreimagePin:
    """Issue and verification hash the same material: the pre-image a
    challenge is issued with is the one :meth:`preimage` recomputes from
    the echoed timestamp and the flow."""

    @pytest.mark.parametrize("params", [
        PuzzleParams(k=1, m=8),
        PuzzleParams(k=2, m=17),
        PuzzleParams(k=1, m=10, length_bytes=16),
    ])
    @pytest.mark.parametrize("now", [0.0, 1.2345, 4294967.4])
    def test_matches_make_challenge(self, params, now):
        scheme = JuelsBrainardScheme()
        binding = FlowBinding(src_ip=0xAC10BEEF, dst_ip=0x0A000001,
                              src_port=41234, dst_port=80,
                              isn=0xDEADBEEF)
        challenge = scheme.make_challenge(params, binding, now)
        issued = scheme.issue_preimage(
            params, binding.src_ip, binding.dst_ip, binding.src_port,
            binding.dst_port, binding.isn, now)
        assert issued == challenge.preimage
        assert challenge.issued_at_ms == issue_timestamp_ms(now)
        assert issued == scheme.preimage(binding, challenge.issued_at_ms,
                                         params.length_bytes)

    def test_charges_counter_identically(self):
        scheme = JuelsBrainardScheme()
        params = PuzzleParams(k=1, m=8)
        binding = FlowBinding(src_ip=1, dst_ip=2, src_port=3, dst_port=4,
                              isn=5)
        reference = HashCounter("ref")
        fused = HashCounter("fused")
        verifier = HashCounter("verify")
        scheme.make_challenge(params, binding, 1.0, counter=reference)
        scheme.issue_preimage(params, 1, 2, 3, 4, 5, 1.0, counter=fused)
        scheme.preimage(binding, issue_timestamp_ms(1.0),
                        params.length_bytes, counter=verifier)
        assert fused.count == reference.count == verifier.count == 1


#: An address no host registers: replies to it are blackholed.
SPOOFED_IP = 0xC6336401

#: The listener configuration that answers a spoofed SYN with each
#: SYN-ACK kind (the cookie listener's one-slot queue is pre-filled).
REPLY_KINDS = {
    "plain": lambda: DefenseConfig(),
    "cookie": lambda: DefenseConfig(mode=DefenseMode.SYNCOOKIES, backlog=1),
    "challenge": lambda: DefenseConfig(mode=DefenseMode.PUZZLES,
                                       always_challenge=True),
}


def _spoofed_syn(server, src_ip, src_port=40000, seq=0x1234567):
    return Packet(src_ip=src_ip, dst_ip=server.address, src_port=src_port,
                  dst_port=80, seq=seq, flags=FLAG_SYN,
                  options=mss_options(DEFAULT_MSS))


def _answer_spoofed_syn(kind, tapped):
    """Answer one spoofed SYN with a *kind* SYN-ACK; with *tapped*, a
    capture tap installed first forces the reply to be materialized.

    Returns the server-side state the reply leaves behind, the bytes
    it added to the server's uplink, the listener, the SYN and the
    captured packets."""
    net = MiniNet()
    server = net.server
    listener = server.tcp.listen(80, REPLY_KINDS[kind]())
    if kind == "cookie":
        listener.handle_syn(_spoofed_syn(server, SPOOFED_IP + 1))
    net.run(until=1.2345)
    uplink = net.network._blackhole_path_for(server.name).links[0]
    captured = []
    if tapped:
        net.network.add_tap(
            lambda now, packet, event: captured.append((event, packet)))
    before = uplink.bytes_sent
    syn = _spoofed_syn(server, SPOOFED_IP)
    listener.handle_syn(syn)
    state = {
        "rng": server.rng.getstate(),
        "mib": server.mib.snapshot(),
        "stats": dataclasses.asdict(listener.stats),
        "hashes": server.hash_counter.count,
        "cpu_busy": server.cpu.busy_seconds(),
        "blackholed": net.network.packets_blackholed,
        "dropped": net.network.packets_dropped,
        "scheduled": net.engine.stats()["events_scheduled"],
    }
    sent = [packet for event, packet in captured if event == "send"]
    return state, uplink.bytes_sent - before, listener, syn, sent


@pytest.mark.skipif(not fabric.BATCHED,
                    reason="REPRO_FABRIC=packet: no reply fast path")
class TestReplySeam:
    """Every SYN-ACK kind leaves the same state whether the reply seam
    folds it on the fast path or materializes it for an observer."""

    @pytest.mark.parametrize("kind", sorted(REPLY_KINDS))
    def test_fast_and_materialized_replies_agree(self, kind):
        fast_state, fast_bytes, fast_listener, _, fast_sent = \
            _answer_spoofed_syn(kind, tapped=False)
        assert isinstance(fast_listener._fast_reply, ReplyFastPath)
        assert fast_sent == []
        state, tapped_bytes, listener, syn, sent = _answer_spoofed_syn(
            kind, tapped=True)
        assert state == fast_state
        assert fast_state["blackholed"] >= 1
        assert len(sent) == 1
        reply = sent[0]
        assert reply.flags == FLAG_SYNACK
        assert (reply.dst_ip, reply.dst_port) == (syn.src_ip, syn.src_port)
        assert reply.ack == syn.seq + 1
        assert reply.size_bytes == fast_bytes == tapped_bytes
        if kind == "challenge":
            challenge = reply.options.challenge
            binding = FlowBinding(src_ip=syn.src_ip, dst_ip=syn.dst_ip,
                                  src_port=syn.src_port,
                                  dst_port=syn.dst_port, isn=syn.seq)
            assert challenge.binding == binding
            assert challenge.preimage == listener.config.scheme.preimage(
                binding, challenge.issued_at_ms,
                challenge.params.length_bytes)


def _mixed_links(seed):
    return [
        Link(rate_bps=100e6, delay=5e-4, buffer_bytes=64 * 1024),
        Link(rate_bps=1e9, delay=2e-4, loss_rate=0.05,
             rng=random.Random(seed * 7 + 1)),
        Link(rate_bps=10e6, delay=1e-3, buffer_bytes=16 * 1024),
    ]


def _link_state(links):
    return [(lk._next_free, lk.packets_sent, lk.packets_dropped,
             lk.packets_lost, lk.bytes_sent, lk.packets_faulted)
            for lk in links]


class TestCompiledFabricEquivalence:
    """Beyond the import-time gate: the adopted C fold must keep
    matching the Python reference on fresh random streams."""

    @pytest.mark.skipif(CFabricPath is None,
                        reason="compiled fabric fold not adopted")
    @pytest.mark.parametrize("seed", [3, 1717, 987654])
    def test_fold_streams_bit_identical(self, seed):
        results = []
        for path_cls in (PyFabricPath, CFabricPath):
            links = _mixed_links(seed)
            path = path_cls(links)
            rng = random.Random(seed + 42)
            out = []
            now = 0.0
            for _ in range(3000):
                out.append(path.fold(now, rng.randint(60, 1514)))
                now += rng.random() * 2e-4
            results.append((out, _link_state(links)))
        assert results[0] == results[1]

    @pytest.mark.skipif(CFabricPath is None,
                        reason="compiled fabric fold not adopted")
    def test_escape_hatches_leave_state_untouched(self):
        # Fault hook installed → NotImplemented, no mutation.
        links = _mixed_links(5)
        links[1].fault = object()
        before = _link_state(links)
        path = CFabricPath(links)
        assert path.fold(0.0, 100) is NotImplemented
        assert _link_state(links) == before
        # Instance-level offer monkeypatch → NotImplemented, and the
        # per-link re-fold honours the patched offer.
        links = _mixed_links(6)
        links[0].offer = lambda now, size: None
        before = _link_state(links)
        path = CFabricPath(links)
        assert path.fold(0.0, 100) is NotImplemented
        assert _link_state(links) == before
        assert fold_links(links, 0.0, 100) is None


class _EscapingFold:
    """A Python fold with the compiled fold's escape hatches: faulted
    links, patched ``offer``s and sizes that would raise go back to the
    caller untouched."""

    def __init__(self, links):
        self.links = tuple(links)

    def fold(self, now, size_bytes):
        if size_bytes <= 0 or any(link.fault is not None
                                  or "offer" in vars(link)
                                  for link in self.links):
            return NotImplemented
        return fold_links(self.links, now, size_bytes)


class _SkipsLossDraw(_EscapingFold):
    """A wrong fold: lossy links never draw from their rng."""

    def fold(self, now, size_bytes):
        rates = [link.loss_rate for link in self.links]
        for link in self.links:
            link.loss_rate = 0.0
        try:
            return super().fold(now, size_bytes)
        finally:
            for link, rate in zip(self.links, rates):
                link.loss_rate = rate


_REJECTED_BUILD_PROBE = r"""
import importlib.util, json, os, sys, types

# Load the real loader by path: importing repro.sim.accel would import
# repro.sim, which runs core adoption before the stub is in place.
accel_path = os.path.join(
    os.path.dirname(importlib.util.find_spec("repro").origin),
    "sim", "accel.py")
spec = importlib.util.spec_from_file_location("_real_accel", accel_path)
real_accel = importlib.util.module_from_spec(spec)
spec.loader.exec_module(real_accel)


def load_cengine():
    # Build and register the real extension module, but offer an engine
    # that scales every delay: the engine gate must reject this build.
    real_accel.load_cengine()
    from repro.sim.reference import ReferenceHeapEngine

    class ScaledDelays(ReferenceHeapEngine):
        def schedule(self, delay, callback, *args):
            return super().schedule(2 * delay, callback, *args)

    return types.SimpleNamespace(Engine=ScaledDelays)


stub = types.ModuleType("repro.sim.accel")
stub.load_cengine = load_cengine
sys.modules["repro.sim.accel"] = stub

from repro.net import fabric
from repro.sim import engine

print(json.dumps({
    "build_loaded": "repro.sim._cengine" in sys.modules,
    "engine_adopted": engine.CEngine is not None,
    "fold_adopted": fabric.CFabricPath is not None,
}, sort_keys=True))
"""


class TestFabricAdoption:
    """The fold gate must be able to say no, and a build whose engine
    was rejected must not contribute its fold."""

    @pytest.mark.parametrize("fold_cls,adopted", [
        pytest.param(_EscapingFold, True, id="python-fold"),
        pytest.param(_SkipsLossDraw, False, id="skips-loss-draw"),
    ] + ([pytest.param(CFabricPath, True, id="c")]
         if CFabricPath is not None else []))
    def test_gate_verdict(self, fold_cls, adopted):
        assert _fabric_gate(fold_cls) is adopted

    @pytest.mark.skipif(CFabricPath is None,
                        reason="compiled fabric fold not adopted")
    def test_fold_from_rejected_build_is_not_adopted(self):
        proc = subprocess.run(
            [sys.executable, "-c", _REJECTED_BUILD_PROBE],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"build_loaded": True,
                                           "engine_adopted": False,
                                           "fold_adopted": False}
