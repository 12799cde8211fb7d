"""Flyweight flood fast paths: SYN descriptors and blackholed replies.

Flood workloads spend most of their wall time crossing Python frames that
exist only to carry three integers from the attacker's RNG to the
listener's triage: build a ``Packet``, ``Host.send`` it, fold it link by
link, deliver it, demultiplex it, and then build and send a response
``Packet`` that a spoofed source can never receive. The two classes here
collapse those frames while preserving the exact observable semantics —
every counter, RNG draw, tracepoint, engine event time and sequence
number matches the per-packet pipeline byte for byte (the differential
suite in ``tests/sim/`` proves it across the full fig7 matrix).

* :class:`SynFastPath` — the attacker side. A bulk sender
  (:class:`~repro.hosts.attacker.SynFlooder`) passes the per-SYN fields
  ``(src_ip, src_port, seq)`` as a flyweight descriptor; the path's
  ``Link.offer`` chain is folded in one (optionally compiled) call and a
  single delivery event is scheduled, exactly like ``Network.send``
  would. At dispatch the descriptor is triaged straight into the
  listener: the tap checks, TCP demux dict probes and ``handle_syn``
  lookup are resolved once per path instead of once per packet, and the
  SYN the listener sees is one reused packet object (safe because the
  listener copies every field it keeps — see the contract below).
* :class:`ReplyFastPath` — the server side. SYN-ACKs answering spoofed
  sources are blackholed after consuming the server's uplink; their
  bytes matter (throughput taps, link accounting) but their contents are
  never read. Each reply kind in the listener does every side effect of
  issuing the response once (hash and CPU accounting, stats, MIB,
  tracer, the ISN draw) and then hands its precomputed on-wire size to
  the listener's one reply seam (``ListenSocket._reply``), which offers
  it to :meth:`ReplyFastPath.send` and builds a packet only when the
  offer is declined.

Contract for flyweight reuse: the fast paths engage only while the
fabric has no packet-level observers (``Network.packet_fault`` unset, no
``add_tap`` captures — those may retain packets). Address-indexed
throughput taps (``add_throughput_tap``) are served: they read only
``size_bytes``/``payload_bytes`` per call and retain nothing. Both
``send`` methods check the observer set themselves on every call and
return False, having touched nothing, when the caller must take the
materialized per-packet path instead; ``ReplyFastPath.send`` also
declines a reply to a registered address, which is delivered and read.

``REPRO_FABRIC=packet`` disables both classes (see
:mod:`repro.net.fabric`), which is how the differential suite runs the
reference pipeline.
"""

from __future__ import annotations

from functools import lru_cache

from repro.metrics.throughput import HostThroughput
from repro.net.fabric import fold_links
from repro.net.packet import (FLAG_SYN, FLAG_SYNACK, IP_HEADER_BYTES,
                              MIN_FRAME_BYTES, TCP_HEADER_BYTES, Packet,
                              mss_options)
from repro.puzzles.codec import challenge_wire_size
from repro.tcp.constants import DEFAULT_MSS


def _frame_size(wire_bytes: int) -> int:
    """``Packet.size_bytes`` for a bare segment with *wire_bytes* of
    options — the same header-plus-minimum arithmetic as the packet
    model, kept in lockstep by ``tests/net/test_floodpath.py``."""
    total = IP_HEADER_BYTES + TCP_HEADER_BYTES + wire_bytes
    return total if total > MIN_FRAME_BYTES else MIN_FRAME_BYTES


#: Cookie SYN-ACK (interned MSS-only options): 4 option bytes.
MSS_SYNACK_SIZE = _frame_size(4)


def plain_synack_size(wscale) -> int:
    """On-wire size of a stock SYN-ACK (MSS always, wscale echoed)."""
    return _frame_size(4 + (4 if wscale is not None else 0))


@lru_cache(maxsize=None)
def challenge_synack_size(params) -> int:
    """On-wire size of a challenge SYN-ACK for *params* (MSS option plus
    the padded challenge block with its embedded timestamp)."""
    _, padded = challenge_wire_size(params, embed_timestamp=True)
    return _frame_size(4 + padded)


class SynFastPath:
    """Per-(source-host, listener) spoofed-SYN pipeline."""

    __slots__ = ("network", "src", "path", "dst_host", "dst_ip",
                 "dst_port", "stack", "handle_syn", "_mib_values",
                 "_servers", "_clients", "flyweight", "size", "_rx_key",
                 "_rx_len", "_rx_adds")

    def __init__(self, network, src, dst_host, dst_port: int) -> None:
        self.network = network
        self.src = src
        self.path = network._path_for(src.name, dst_host.name)
        self.dst_host = dst_host
        self.dst_ip = dst_host.address
        self.dst_port = dst_port
        self.stack = dst_host.tcp
        self.handle_syn = self.stack.listener(dst_port).handle_syn
        # The stack's demux tables and the host MIB's backing dict are
        # created once in their constructors and never reassigned —
        # caching them turns the per-SYN demux into plain dict probes.
        self._mib_values = self.stack._mib._values
        self._servers = self.stack._servers
        self._clients = self.stack._clients
        # One reused SYN packet: per-delivery fields are overwritten in
        # _deliver; everything else (flags, options, sizes) is constant
        # across a flood.
        self.flyweight = Packet(
            src_ip=0, dst_ip=self.dst_ip, src_port=0, dst_port=dst_port,
            flags=FLAG_SYN, options=mss_options(DEFAULT_MSS))
        self.size = self.flyweight.size_bytes
        # Rx-tap specialization cache (see _specialize_rx).
        self._rx_key = None
        self._rx_len = 0
        self._rx_adds = None

    def send(self, src_ip: int, src_port: int, seq: int) -> bool:
        """Fold and schedule one spoofed SYN; False → the caller must
        take the materialized per-packet path for this send."""
        net = self.network
        if (net.packet_fault is not None or net._taps
                or net._tx_taps.get(src_ip) is not None
                or "send" in self.src.__dict__):
            return False
        now = net.engine.now
        arrival = self.path.fold(now, self.size)
        if arrival is NotImplemented:
            # A link-level fault hook is installed; nothing was mutated,
            # so the per-packet path replays this send exactly.
            return False
        if arrival is None:
            net.packets_dropped += 1
            return True
        net._schedule_at(arrival, self._deliver, src_ip, src_port, seq,
                         now)
        return True

    def _materialize(self, src_ip: int, src_port: int, seq: int,
                     sent_at: float) -> Packet:
        return Packet(src_ip=src_ip, dst_ip=self.dst_ip,
                      src_port=src_port, dst_port=self.dst_port, seq=seq,
                      flags=FLAG_SYN, options=mss_options(DEFAULT_MSS),
                      sent_at=sent_at)

    def _deliver(self, src_ip: int, src_port: int, seq: int,
                 sent_at: float) -> None:
        net = self.network
        net.packets_delivered += 1
        if (net._taps or "receive" in self.dst_host.__dict__
                or "receive" in self.stack.__dict__):
            # A capture tap or an instance-level receive override
            # appeared between send and delivery: those may retain or
            # inspect packets, so hand them a real one.
            packet = self._materialize(src_ip, src_port, seq, sent_at)
            now = net.engine.now
            for tap in net._taps:
                tap(now, packet, "deliver")
            rx = net._rx_taps.get(self.dst_ip)
            if rx is not None:
                for on_rx in rx:
                    on_rx(now, packet)
            self.dst_host.receive(packet)
            return
        fw = self.flyweight
        fw.src_ip = src_ip
        fw.src_port = src_port
        fw.seq = seq
        fw.sent_at = sent_at
        rx = net._rx_taps.get(self.dst_ip)
        if rx is not None:
            now = net.engine.now
            if rx is self._rx_key and len(rx) == self._rx_len:
                adds = self._rx_adds
            else:
                adds = self._specialize_rx(rx)
            if adds is not None:
                # All taps are stock HostThroughput: a zero-payload SYN
                # reduces on_rx to one BinnedSeries accumulation of its
                # size, inlined here (same arithmetic as ``add``).
                size = self.size
                for bins, t0, width, series in adds:
                    index = int((now - t0) // width)
                    bins[index] = bins.get(index, 0.0) + size
                    series.total += size
            else:
                for on_rx in rx:
                    on_rx(now, fw)
        # Inlined TCPStack.receive demux for a SYN: same counters, same
        # table probes, with the listener lookup resolved at setup.
        key = (self.dst_port, src_ip, src_port)
        if key in self._servers or key in self._clients:
            # A live connection owns this exact flow (possible only when
            # the spoofing pool overlaps real addresses): replay through
            # the full demux with a materialized packet.
            self.stack.receive(self._materialize(src_ip, src_port, seq,
                                                 sent_at))
            return
        self.stack.segments_received += 1
        values = self._mib_values
        values["InSegs"] = values.get("InSegs", 0) + 1
        self.handle_syn(fw)

    def _specialize_rx(self, rx):
        """Re-resolve the rx-tap list (identity/length changed): a list
        of ``(bins, t0, bin_width, series)`` accumulator tuples when
        every tap is an unmodified :class:`HostThroughput`, else None →
        generic ``on_rx`` loop."""
        adds = []
        for on_rx in rx:
            if (type(getattr(on_rx, "__self__", None)) is HostThroughput
                    and getattr(on_rx, "__func__", None)
                    is HostThroughput.on_rx):
                series = on_rx.__self__.rx
                adds.append((series._bins, series.t0, series.bin_width,
                             series))
            else:
                adds = None
                break
        self._rx_key = rx
        self._rx_len = len(rx)
        self._rx_adds = adds
        return adds


class ReplyFastPath:
    """Per-host pipeline for replies that will be blackholed."""

    __slots__ = ("network", "host", "path", "src_ip", "flyweight",
                 "_tx_key", "_tx_len", "_tx_adds")

    def __init__(self, network, host) -> None:
        self.network = network
        self.host = host
        self.path = network._blackhole_path_for(host.name)
        self.src_ip = host.address
        self.flyweight = Packet(
            src_ip=host.address, dst_ip=0, src_port=0, dst_port=0,
            flags=FLAG_SYNACK)
        # Tx-tap specialization cache (mirror of SynFastPath's rx one).
        self._tx_key = None
        self._tx_len = 0
        self._tx_adds = None

    def send(self, size: int, dst_ip: int, dst_port: int) -> bool:
        """Account one *size*-byte reply toward the uplink blackhole —
        the tail of ``Network.send`` for an unregistered destination,
        without the packet. False → nothing was touched and the caller
        must materialize the reply: *dst_ip* is registered (the reply is
        delivered and read), a packet-retaining observer is installed,
        or ``host.send`` is overridden on the instance (tests spy on
        outgoing packets that way)."""
        net = self.network
        if (net.packet_fault is not None or net._taps
                or dst_ip in net._hosts_by_ip
                or "send" in self.host.__dict__):
            return False
        now = net.engine.now
        tx = net._tx_taps.get(self.src_ip)
        if tx is not None:
            if tx is self._tx_key and len(tx) == self._tx_len:
                adds = self._tx_adds
            else:
                adds = self._specialize_tx(tx)
            if adds is not None:
                for bins, t0, width, series in adds:
                    index = int((now - t0) // width)
                    bins[index] = bins.get(index, 0.0) + size
                    series.total += size
            else:
                fw = self.flyweight
                fw.sent_at = now
                fw.size_bytes = size
                fw.dst_ip = dst_ip
                fw.dst_port = dst_port
                for on_tx in tx:
                    on_tx(now, fw)
        arrival = self.path.fold(now, size)
        if arrival is NotImplemented:
            arrival = fold_links(self.path.links, now, size)
        if arrival is None:
            # Droptailed on the uplink before reaching the backbone.
            net.packets_dropped += 1
        else:
            net.packets_blackholed += 1
        return True

    def _specialize_tx(self, tx):
        adds = []
        for on_tx in tx:
            if (type(getattr(on_tx, "__self__", None)) is HostThroughput
                    and getattr(on_tx, "__func__", None)
                    is HostThroughput.on_tx):
                series = on_tx.__self__.tx
                adds.append((series._bins, series.t0, series.bin_width,
                             series))
            else:
                adds = None
                break
        self._tx_key = tx
        self._tx_len = len(tx)
        self._tx_adds = adds
        return adds
