"""Network substrate: addresses, packets, links, topology.

Substitutes for the paper's DETER testbed network (Figure 16): three fully
connected backbone routers at 1 Gbps, the server on a 1 Gbps access link,
every other host on 100 Mbps. Links model serialization, propagation and
bounded FIFO queueing; a packet traverses its whole precomputed path with a
single engine event (per-link FIFO order is preserved because sends are
processed in global time order — see :mod:`repro.net.link`).
"""

from repro.net.addresses import (
    AddressAllocator,
    SpoofingPool,
    format_ip,
    parse_ip,
)
from repro.net.packet import Packet, TCPFlags, TCPOptions
from repro.net.link import Link
from repro.net.network import Network
from repro.net.topology import Topology, deter_topology

__all__ = [
    "AddressAllocator",
    "SpoofingPool",
    "format_ip",
    "parse_ip",
    "Packet",
    "TCPFlags",
    "TCPOptions",
    "Link",
    "Network",
    "Topology",
    "deter_topology",
]
