"""The network fabric: delivers packets between attached hosts.

``Network`` owns the topology and the engine reference; hosts register with
their address and receive callbacks. Sending folds the packet through every
directed link on its path (see :mod:`repro.net.link` for why that is exact)
and schedules one delivery event. Path folds go through cached
:class:`~repro.net.fabric.FabricPath` objects — one object per (src, dst)
pair — so the whole ``Link.offer`` chain is a single call (compiled when
the accelerated core is adopted, a one-frame Python loop otherwise).

With the compiled core adopted, a network binds the compiled send of
:mod:`repro.net.floodpath` as its ``send``: packets to registered hosts
are metered, folded, scheduled and delivered in C, into the host's
``TCPStack.receive``. :meth:`Network.send` and :meth:`Network._deliver`
below are the per-packet pipeline it declines to (taps, a packet fault
hook, an unregistered destination) and the oracle it is tested against.

Packets addressed to unregistered addresses — e.g. SYN-ACKs answering
spoofed SYN floods — still consume link capacity on the path toward the
destination's *presumed* attachment and are then blackholed, mirroring what
spoofed-source replies do on a real network. A reply that the uplink's
droptail queue rejects never reaches the backbone, so it counts as a
``drop`` (and taps as one), not as blackholed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol

from repro.errors import NetworkError
from repro.net.fabric import FabricPath, fold_links
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.sim.engine import Engine


class Attachable(Protocol):
    """What the network needs from a host."""

    address: int
    name: str

    def receive(self, packet: Packet) -> None: ...  # noqa: E704


#: Tap signature: (time, packet, event) with event in
#: {"send", "deliver", "drop", "blackhole"}.
Tap = Callable[[float, Packet, str], None]


class Network:
    """Packet delivery fabric over a :class:`Topology`."""

    def __init__(self, engine: Engine, topology: Topology) -> None:
        self.engine = engine
        self.topology = topology
        # Bound-method cache: ``send`` schedules one delivery per packet
        # and the engine never changes after construction.
        self._schedule_at = engine.schedule_at
        self._hosts_by_ip: Dict[int, Attachable] = {}
        self._hosts_by_name: Dict[str, Attachable] = {}
        self._taps: List[Tap] = []
        # Hot-path caches over the (static-after-setup) topology — the
        # same assumption Topology's own path cache already makes. Keyed
        # by host *names* so they survive re-registration in tests.
        self._paths: Dict[tuple, FabricPath] = {}
        self._blackhole_paths: Dict[str, FabricPath] = {}
        # Host throughput accounting (see add_throughput_tap): per
        # address, the (bytes, goodput) BinnedSeries pairs to add to.
        self._tx_meters: Dict[int, list] = {}
        self._rx_meters: Dict[int, list] = {}
        #: Optional fault-injection hook called as ``(now, packet)`` on
        #: every send before path folding. Unlike taps (pure observers)
        #: it may mutate the packet's *options* in place — the bit-flip
        #: corruption injector rewrites challenge/solution blocks here.
        self.packet_fault: Optional[Callable[[float, Packet], None]] = None
        self.packets_delivered = 0
        self.packets_dropped = 0
        self.packets_blackholed = 0
        # The compiled send and deliver (see repro.net.floodpath), bound
        # in place of send when adopted: Host.send then reaches C with no
        # Python frame between. ``send`` and ``_deliver`` below stay the
        # per-packet oracle it declines to.
        from repro.net.floodpath import DeliveryPath

        compiled = DeliveryPath(self)
        if compiled is not None:
            self.send = compiled.send

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, host: Attachable) -> None:
        """Register a host already attached in the topology."""
        if host.name not in self.topology.host_names():
            raise NetworkError(
                f"host {host.name!r} is not attached to the topology")
        if host.address in self._hosts_by_ip:
            raise NetworkError(
                f"duplicate address registration: {host.address!r}")
        self._hosts_by_ip[host.address] = host
        self._hosts_by_name[host.name] = host

    def host_for(self, address: int) -> Optional[Attachable]:
        return self._hosts_by_ip.get(address)

    def add_tap(self, tap: Tap) -> None:
        """Install a tcpdump-like observer over all fabric events."""
        self._taps.append(tap)

    def add_throughput_tap(self, throughput) -> None:
        """Account a :class:`~repro.metrics.throughput.HostThroughput`'s
        host traffic in the network itself.

        Equivalent to ``add_tap(throughput.tap)``: the meter's four
        :class:`~repro.metrics.series.BinnedSeries` are registered by its
        address, and every packet the host sends (``tx``) or is
        delivered (``rx``) adds its ``size_bytes``, and its
        ``payload_bytes`` when non-zero (``tx_goodput``/``rx_goodput``),
        with ``BinnedSeries.add``'s arithmetic written out where the
        packet is handled — here, and in C by the compiled packet paths
        of :mod:`repro.net.floodpath` — so no Python call runs per
        packet and the compiled paths stay engaged.
        """
        self._tx_meters.setdefault(throughput.address, []).append(
            (throughput.tx, throughput.tx_goodput))
        self._rx_meters.setdefault(throughput.address, []).append(
            (throughput.rx, throughput.rx_goodput))

    # ------------------------------------------------------------------
    # Path caches
    # ------------------------------------------------------------------
    def _path_for(self, src_name: str, dst_name: str) -> FabricPath:
        key = (src_name, dst_name)
        path = self._paths.get(key)
        if path is None:
            path = FabricPath(self.topology.path_links(src_name, dst_name))
            self._paths[key] = path
        return path

    def _blackhole_path_for(self, src_name: str) -> FabricPath:
        path = self._blackhole_paths.get(src_name)
        if path is None:
            # Replies to spoofed sources consume the sender's uplink
            # (the first hop toward the core), then vanish.
            uplink = self.topology.path_links(src_name, "server")[:1] \
                if src_name != "server" else \
                self.topology.path_links(
                    "server", self._any_other_host(src_name))[:1]
            path = FabricPath(uplink)
            self._blackhole_paths[src_name] = path
        return path

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: Attachable, packet: Packet) -> None:
        """Inject *packet* from *src*; delivery is scheduled on the engine.

        The source *host* determines the ingress path regardless of the
        packet's source address — that is what makes spoofing possible.
        """
        now = self.engine.now
        if self.packet_fault is not None:
            self.packet_fault(now, packet)
        # With no taps installed (most sweeps) the tap loops cost one
        # truthiness check.
        taps = self._taps
        if taps:
            for tap in taps:
                tap(now, packet, "send")
        size = packet.size_bytes
        meters = self._tx_meters.get(packet.src_ip)
        if meters is not None:
            payload = packet.payload_bytes
            for series, goodput in meters:
                index = int((now - series.t0) // series.bin_width)
                bins = series._bins
                bins[index] = bins.get(index, 0.0) + size
                series.total += size
                if payload:
                    index = int((now - goodput.t0) // goodput.bin_width)
                    bins = goodput._bins
                    bins[index] = bins.get(index, 0.0) + payload
                    goodput.total += payload

        dst_host = self._hosts_by_ip.get(packet.dst_ip)
        if dst_host is None:
            # Replies to spoofed sources: consume the sender's uplink,
            # then vanish in the backbone.
            path = self._blackhole_paths.get(src.name)
            if path is None:
                path = self._blackhole_path_for(src.name)
            arrival = path.fold(now, size)
            if arrival is NotImplemented:
                arrival = fold_links(path.links, now, size)
            if arrival is None:
                # Droptailed on the uplink: the reply never reached the
                # backbone to be blackholed — it is an ordinary drop.
                self.packets_dropped += 1
                if taps:
                    for tap in taps:
                        tap(now, packet, "drop")
                return
            self.packets_blackholed += 1
            if taps:
                for tap in taps:
                    tap(now, packet, "blackhole")
            return

        key = (src.name, dst_host.name)
        path = self._paths.get(key)
        if path is None:
            path = self._path_for(*key)
        arrival = path.fold(now, size)
        if arrival is NotImplemented:
            arrival = fold_links(path.links, now, size)
        if arrival is None:
            self.packets_dropped += 1
            if taps:
                for tap in taps:
                    tap(now, packet, "drop")
            return
        self._schedule_at(arrival, self._deliver, dst_host, packet)

    def _any_other_host(self, not_this: str) -> str:
        for name in self.topology.host_names():
            if name != not_this:
                return name
        raise NetworkError("topology has a single host; nowhere to route")

    def _deliver(self, host: Attachable, packet: Packet) -> None:
        self.packets_delivered += 1
        taps = self._taps
        if taps:
            now = self.engine.now
            for tap in taps:
                tap(now, packet, "deliver")
        meters = self._rx_meters.get(packet.dst_ip)
        if meters is not None:
            now = self.engine.now
            size = packet.size_bytes
            payload = packet.payload_bytes
            for series, goodput in meters:
                index = int((now - series.t0) // series.bin_width)
                bins = series._bins
                bins[index] = bins.get(index, 0.0) + size
                series.total += size
                if payload:
                    index = int((now - goodput.t0) // goodput.bin_width)
                    bins = goodput._bins
                    bins[index] = bins.get(index, 0.0) + payload
                    goodput.total += payload
        host.receive(packet)

    # ------------------------------------------------------------------
    # Compiled flood fast paths (see repro.net.floodpath)
    # ------------------------------------------------------------------
    def syn_fast_path(self, flooder):
        """The compiled firing loop for *flooder*'s spoofed SYNs, or None
        when the compiled core is not adopted or the target is not (yet)
        a registered host with a listener on that port."""
        from repro.net.floodpath import SynFastPath

        return SynFastPath(self, flooder)

    def reply_fast_path(self, host: Attachable):
        """The compiled path for *host*'s replies to unregistered
        (spoofed) addresses, or None when the compiled core is not
        adopted."""
        from repro.net.floodpath import ReplyFastPath

        return ReplyFastPath(self, host)
