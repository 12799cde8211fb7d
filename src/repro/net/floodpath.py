"""Compiled packet paths: the plumbing around the Python TCP stack.

Every packet crosses the same Python frames before the stack sees it:
``Host.send``, ``Network.send`` (meters, fold, schedule),
``Network._deliver`` (count, meters) and ``Host.receive``. A spoofed-SYN
flood adds more: it spends most of its wall time carrying three integers
from the attacker's RNG to the listener's triage, and a reply's size
from the listener into a blackhole. The compiled core
(``repro.sim._cengine``) does that plumbing in C, with three types this
module builds:

* ``DeliveryPath`` (:func:`DeliveryPath`) — one network's send and
  deliver for packets to registered hosts. ``Network`` binds its
  ``send`` in place of the Python method, so ``Host.send`` reaches C
  with no Python frame between. The send does the tx meters, the fold
  through the cached path, the drop count and one scheduled delivery;
  the delivery counts the packet, does the rx meters and hands it to
  the host's ``TCPStack.receive`` (``Host.receive`` only forwards to it),
  or to the host's own ``receive`` when its instance overrides it.
* ``SynFastPath`` (:func:`SynFastPath`) — one
  :class:`~repro.hosts.attacker.SynFlooder`'s firing loop. It makes the
  bot's draws (the same ``rng.getrandbits`` calls as
  ``SpoofingPool.draw()``, ``randrange(1024, 65536)`` and
  ``getrandbits(32)``), folds the SYN through the bot's cached path,
  schedules its delivery and reschedules itself, all as
  ``SynFlooder._fire`` and ``Network.send`` would. At delivery it
  counts the SYN as ``Network._deliver`` and ``TCPStack.receive``
  would, and calls ``ListenSocket.handle_syn`` with one reused packet
  (the flyweight), which is safe because the listener copies every
  field it keeps.
* ``ReplyFastPath`` (:func:`ReplyFastPath`) — one host's SYN-ACKs to
  unregistered (spoofed) addresses. Each SYN-ACK kind in the listener
  does its side effects once (hash, CPU, stats, MIB, tracer, ISN) and
  hands its on-wire size to the listener's one reply seam
  (``ListenSocket._reply``), which offers it to ``send(size, dst_ip,
  dst_port) -> bool``: tx meters, the uplink fold, and the blackhole or
  drop count.

The three share one decline predicate (a tap or a packet fault hook),
one meter helper and the compiled fold. Triage and the rest of the
stack stay Python: every compiled delivery ends in the one
``TCPStack.receive`` or ``handle_syn``.

Adoption: all three are built exactly when the compiled fold is adopted
(``REPRO_FABRIC=auto`` and :data:`~repro.net.fabric.CFabricPath` is not
None, see :mod:`repro.net.fabric`) and the network runs on the compiled
engine. Otherwise the builders return None and the per-packet pipeline
runs. That pipeline is the oracle: the byte-identity matrix in
``tests/sim/``, ``tests/net/test_flood_declines.py`` and
``tests/net/test_packet_path.py`` hold the compiled paths to it.

Declines: the compiled paths engage only while nothing observes
individual packets. Each checks on every call and, having touched
nothing, hands the work to the existing Python code (``Network.send``,
``Network._deliver``, the flooder's own send) with a real packet when

* a capture tap (``Network.add_tap``) or a packet fault hook
  (``Network.packet_fault``) is installed;
* a packet is addressed to an unregistered host (it is blackholed);
* a link-level fault hook or ``offer`` override makes the fold return
  ``NotImplemented`` (the send then folds link by link, in Python);
* ``send`` is overridden on the bot's or the server's instance, or
  ``receive`` on the server host's or its stack's, around a flyweight;
* a spoofed source carries a tx meter, or a reply goes to a registered
  address (it is delivered and read);
* a spoofed flow is owned by a live connection on the server.

Hosts are never bound per instance: an instance-level ``send`` or
``receive`` is always someone's override, which the delivery calls and
the flood paths decline around.

Host throughput accounting is not an observer: ``Network`` registers a
meter's series by address (``Network.add_throughput_tap``) and the
compiled paths add each frame's size (and payload) to them with the
same arithmetic.

The builders share the names of the types they build. The benchmark's
traced ledger (``perfbench/ledger.py``) looks them up here and reports
the Python methods it used to time as missing entry points; its
class-level wrappers on ``Network.send`` and ``_deliver`` see only the
packets the compiled send declines.
"""

from __future__ import annotations

import sys
from functools import lru_cache

from repro.net.fabric import CFabricPath, fold_links
from repro.net.packet import (FLAG_SYN, IP_HEADER_BYTES, MIN_FRAME_BYTES,
                              TCP_HEADER_BYTES, Packet, mss_options)
from repro.puzzles.codec import challenge_wire_size
from repro.sim.engine import CEngine
from repro.tcp.constants import DEFAULT_MSS

#: The compiled core that provides the fast paths, or None when its fold
#: is not adopted.
_CORE = (sys.modules[CFabricPath.__module__] if CFabricPath is not None
         else None)


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


def syn_packet(src_ip: int, dst_ip: int, src_port: int, dst_port: int,
               seq: int) -> Packet:
    """A flooder's bare SYN as a packet: what the per-packet pipeline
    sends, and what the compiled path hands over when it declines."""
    return Packet(src_ip, dst_ip, src_port, dst_port, seq, 0, FLAG_SYN,
                  mss_options(DEFAULT_MSS))


def _compiled(network) -> bool:
    return _CORE is not None and type(network.engine) is CEngine


def DeliveryPath(network):
    """The compiled send and deliver of *network*'s packets to registered
    hosts, or None when it is not adopted or the network's engine is not
    the compiled one."""
    if not _compiled(network):
        return None
    # Hosts are built on a network, so the forwarder the delivery skips
    # is looked up when a network is, not at import.
    from repro.hosts.host import Host

    return _CORE.DeliveryPath(
        engine=network.engine, network=network, packet_type=Packet,
        forwarder=Host.receive, fold_links=fold_links)


def SynFastPath(network, flooder):
    """The compiled firing loop for *flooder*'s spoofed SYNs, or None
    when it is not adopted, the network's engine is not the compiled
    one, or the target is not (yet) a registered host with a listener
    on its port."""
    bot = flooder.host
    if not _compiled(network) or bot.engine is not network.engine:
        return None
    config = flooder.config
    server = network.host_for(config.server_ip)
    stack = getattr(server, "tcp", None)
    listener = (stack.listener(config.server_port)
                if stack is not None else None)
    if listener is None:
        return None
    pool = flooder._pool
    return _CORE.SynFastPath(
        engine=network.engine,
        path=network._path_for(bot.name, server.name),
        flooder=vars(flooder), stats=vars(flooder.stats), bot=vars(bot),
        getrandbits=bot.rng.getrandbits,
        send_packet=flooder._send_packet, interval=flooder._interval,
        pool=(pool._base, pool._span, pool._span_bits),
        network=network, server=server, stack=stack,
        handle_syn=listener.handle_syn,
        flyweight=syn_packet(0, server.address, 0, config.server_port, 0),
        materialize=syn_packet)


def ReplyFastPath(network, host):
    """The compiled path for *host*'s replies to unregistered (spoofed)
    addresses, or None when it is not adopted or the network's engine
    is not the compiled one. Raises ``NetworkError`` when the topology
    routes no uplink for *host*."""
    if not _compiled(network):
        return None
    return _CORE.ReplyFastPath(
        engine=network.engine, path=network._blackhole_path_for(host.name),
        network=network, host=host, fold_links=fold_links)
