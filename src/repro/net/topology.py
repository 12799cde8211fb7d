"""Experiment topologies.

:func:`deter_topology` reproduces the paper's Figure 16 setup: a backbone of
three routers fully connected with 1 Gbps links; the server attached at
1 Gbps; every client and attacker host attached at 100 Mbps. Paths are
static shortest paths (hop count), found by breadth-first search and cached
per (host, host) pair. Every topology built here has a unique shortest path
between any two hosts; where several would tie, the search keeps the first
it reaches in connection order.

Each undirected cable is a pair of independent :class:`~repro.net.link.Link`
objects (full duplex).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, List, Tuple

from repro.errors import NetworkError
from repro.net.link import Link

GBPS = 1e9
MBPS = 1e6


class Topology:
    """Routers, attachment points, and directed links between them.

    Nodes are string names. Hosts are *attached* to router nodes through
    their own access links; the path for a packet is
    ``access-up + backbone hops + access-down``.
    """

    def __init__(self) -> None:
        self._kind: Dict[str, str] = {}  # node -> "router" | "host"
        self._adjacent: Dict[str, List[str]] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._attachment: Dict[str, str] = {}  # host node -> router node
        self._path_cache: Dict[Tuple[str, str], List[Link]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_router(self, name: str) -> None:
        self._kind[name] = "router"
        self._adjacent.setdefault(name, [])

    def connect(self, a: str, b: str, rate_bps: float,
                delay: float = 0.0005,
                buffer_bytes: int = 256 * 1024) -> None:
        """Join two nodes with a full-duplex link pair."""
        for node in (a, b):
            if node not in self._kind:
                raise NetworkError(f"unknown node {node!r}")
        self._adjacent[a].append(b)
        self._adjacent[b].append(a)
        self._links[(a, b)] = Link(rate_bps=rate_bps, delay=delay,
                                   buffer_bytes=buffer_bytes,
                                   name=f"{a}->{b}")
        self._links[(b, a)] = Link(rate_bps=rate_bps, delay=delay,
                                   buffer_bytes=buffer_bytes,
                                   name=f"{b}->{a}")
        self._path_cache.clear()

    def attach_host(self, host_name: str, router: str, rate_bps: float,
                    delay: float = 0.0005,
                    buffer_bytes: int = 256 * 1024) -> None:
        """Attach a host to a router through its own access link pair."""
        if self._kind.get(router) != "router":
            raise NetworkError(f"unknown router {router!r}")
        if host_name in self._kind:
            raise NetworkError(f"duplicate host {host_name!r}")
        self._kind[host_name] = "host"
        self._adjacent[host_name] = [router]
        self._adjacent[router].append(host_name)
        self._links[(host_name, router)] = Link(
            rate_bps=rate_bps, delay=delay, buffer_bytes=buffer_bytes,
            name=f"{host_name}->{router}")
        self._links[(router, host_name)] = Link(
            rate_bps=rate_bps, delay=delay, buffer_bytes=buffer_bytes,
            name=f"{router}->{host_name}")
        self._attachment[host_name] = router
        self._path_cache.clear()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def link(self, a: str, b: str) -> Link:
        try:
            return self._links[(a, b)]
        except KeyError:
            raise NetworkError(f"no link {a!r} -> {b!r}")

    def host_names(self) -> List[str]:
        return sorted(self._attachment)

    def path_links(self, src_host: str, dst_host: str) -> List[Link]:
        """Directed links a packet crosses from *src_host* to *dst_host*."""
        key = (src_host, dst_host)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        for host in key:
            if host not in self._attachment:
                raise NetworkError(f"host {host!r} is not attached")
        parent = {src_host: src_host}
        frontier = deque([src_host])
        while frontier:
            node = frontier.popleft()
            if node == dst_host:
                break
            for neighbour in self._adjacent[node]:
                if neighbour not in parent:
                    parent[neighbour] = node
                    frontier.append(neighbour)
        else:
            raise NetworkError(
                f"no path between {src_host!r} and {dst_host!r}")
        nodes = [dst_host]
        while nodes[-1] != src_host:
            nodes.append(parent[nodes[-1]])
        nodes.reverse()
        links = [self._links[(a, b)] for a, b in zip(nodes, nodes[1:])]
        self._path_cache[key] = links
        return links

    def all_links(self) -> List[Link]:
        return list(self._links.values())


def deter_topology(n_client_hosts: int, n_attacker_hosts: int,
                   backbone_rate: float = GBPS,
                   server_rate: float = GBPS,
                   host_rate: float = 100 * MBPS) -> Topology:
    """The Figure 16 scenario topology.

    Three fully connected backbone routers; the server hangs off ``r1``;
    clients alternate between ``r2``/``r3`` and attackers between
    ``r3``/``r2`` — spreading load like the testbed did. Host names are
    ``server``, ``client<i>``, ``attacker<i>``.
    """
    topo = Topology()
    routers = ["r1", "r2", "r3"]
    for router in routers:
        topo.add_router(router)
    for a, b in itertools.combinations(routers, 2):
        topo.connect(a, b, rate_bps=backbone_rate)
    topo.attach_host("server", "r1", rate_bps=server_rate)
    for i in range(n_client_hosts):
        topo.attach_host(f"client{i}", routers[1 + i % 2],
                         rate_bps=host_rate)
    for i in range(n_attacker_hosts):
        topo.attach_host(f"attacker{i}", routers[1 + (i + 1) % 2],
                         rate_bps=host_rate)
    return topo
