"""IP-multicast-style group delivery over the simulated network.

The collaboration session rides on "the omnipresence of IP [multicast] on
different physical media" (paper Sec. 5.1).  A multicast group is a
membership registry keyed by a group address (``"239.x.y.z"`` style
string); :meth:`MulticastGroup.fan_out` reaches the members one of two
ways, both ending in the network's single delivery primitive:

* without a fabric, one unicast per member through the sender's socket.
  Observable semantics match real multicast (independent per-path
  delay/loss, no sender loopback) but every shared
  link is billed once per member — O(members × path) physical packets
  per send.  This is the flat oracle the tree is tested against;
* with a :class:`~repro.network.routing.MulticastFabric`, one
  :meth:`~repro.network.routing.MulticastFabric.cast` down the group's
  distribution tree: the packet traverses each tree edge once and
  replicates only at branch points, O(tree edges) per send, which is
  what lets a group scale across a shared backbone.

Both produce the identical delivery set, per-receiver order, and
packet-disposition accounting on a loss-free fabric (a hypothesis
property pins this), so a fabric-less group remains a drop-in fallback
for topologies with no routers.

The registry lives outside any single node because real multicast
membership is a network-layer concern (IGMP), not an end-host table.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, Optional

from .simnet import Address, Network, NetworkError, Packet
from .udp import DatagramSocket

if TYPE_CHECKING:
    from .routing import MulticastFabric

__all__ = ["MulticastGroup", "MulticastSocket"]


class MulticastGroup:
    """Membership registry for one group address + port.

    With a ``fabric``, membership changes graft/prune the fabric's
    distribution tree and sends ride it (every member host must be
    attached, see :meth:`MulticastFabric.attach_host`); without one,
    delivery falls back to per-member unicast fan-out.
    """

    def __init__(
        self,
        network: Network,
        group: str,
        port: int,
        fabric: Optional["MulticastFabric"] = None,
    ) -> None:
        self.network = network
        self.group = group
        self.port = port
        self.fabric = fabric
        #: (host, port) of every joined socket, kept sorted (read on every send)
        self._members: list[tuple[Address, int]] = []
        if fabric is not None:
            fabric.create_group(group)

    def join(self, sock: "MulticastSocket") -> None:
        key = (sock.host, sock.local_port)
        at = bisect_left(self._members, key)
        if self._members[at : at + 1] == [key]:
            raise NetworkError(f"{key} already joined {self.group}")
        if self.fabric is not None:
            self.fabric.join(self.group, sock.host)  # raises for an unattached host
        self._members.insert(at, key)

    def leave(self, sock: "MulticastSocket") -> None:
        key = (sock.host, sock.local_port)
        at = bisect_left(self._members, key)
        if self._members[at : at + 1] == [key]:
            del self._members[at]
            if self.fabric is not None:
                self.fabric.leave(self.group, sock.host)

    @property
    def members(self) -> list[tuple[Address, int]]:
        """Current members as (host, port) pairs, sorted for determinism."""
        return list(self._members)

    def fan_out(self, data: bytes, sender: "MulticastSocket") -> int:
        """Deliver ``data`` to every member but the sender; returns datagrams scheduled.

        Either way the sender's own :class:`DatagramSocket` counts what
        leaves the host in ``sent_datagrams`` (the counter host
        instrumentation exports): one per member flat, one per group
        send over a tree.
        """
        me = (sender.host, sender.local_port)
        targets = [key for key in self._members if key != me]
        if self.fabric is None:
            return sum(sender._sock.sendto(data, key) for key in targets)
        packet = Packet(sender.host, sender.local_port, self.group, self.port, bytes(data))
        sender._sock.sent_datagrams += 1
        return self.fabric.cast(self.group, packet, targets)


class MulticastSocket:
    """A socket joined to a multicast group.

    Built on :class:`~repro.network.udp.DatagramSocket`; each member binds
    a distinct local port (the simulator has no SO_REUSEADDR port sharing)
    and the group registry handles fan-out.  Receive is callback-style:
    ``on_receive(data, (src_host, src_port))``.

    Example
    -------
    >>> from repro.network.clock import Scheduler
    >>> sched = Scheduler(); net = Network(sched)
    >>> for n in ("a", "b", "c"): _ = net.add_node(n)
    >>> _ = net.add_link("a", "b"); _ = net.add_link("b", "c")
    >>> grp = MulticastGroup(net, "239.1.1.1", 5000)
    >>> seen = []
    >>> socks = [MulticastSocket(net, h, grp,
    ...          on_receive=lambda d, s, h=h: seen.append((h, d)))
    ...          for h in ("a", "b", "c")]
    >>> _ = socks[0].send(b"ev")
    >>> _ = sched.run()
    >>> sorted(seen)
    [('b', b'ev'), ('c', b'ev')]
    """

    def __init__(
        self,
        network: Network,
        host: Address,
        group: MulticastGroup,
        on_receive: Optional[Callable[[bytes, tuple[Address, int]], None]] = None,
    ) -> None:
        self.network = network
        self.host = host
        self.group = group
        self._sock = DatagramSocket(network, host)
        self._sock.bind_ephemeral()
        self._sock.on_receive = self._dispatch
        self.on_receive = on_receive
        self._closed = False
        try:
            group.join(self)
        except NetworkError:
            self._sock.close()  # a refused join must not keep the port bound
            raise

    @property
    def local_port(self) -> int:
        return self._sock.port  # type: ignore[return-value]

    @property
    def sent_datagrams(self) -> int:
        """Datagrams this socket pushed onto the wire (multicast included)."""
        return self._sock.sent_datagrams

    @property
    def received_datagrams(self) -> int:
        """Datagrams delivered to this socket."""
        return self._sock.received_datagrams

    def _dispatch(self, data: bytes, src: tuple[Address, int]) -> None:
        if self.on_receive is not None:
            self.on_receive(data, src)

    @property
    def closed(self) -> bool:
        """True once :meth:`leave`/:meth:`close` has run."""
        return self._closed

    def send(self, data: bytes) -> int:
        """Multicast ``data`` to the group; returns datagrams scheduled."""
        if self._closed:
            raise NetworkError("multicast socket is closed")
        return self.group.fan_out(data, self)

    def unicast(self, data: bytes, dest: tuple[Address, int]) -> bool:
        """Point-to-point send from the same local port (BS→wireless path)."""
        if self._closed:
            raise NetworkError("multicast socket is closed")
        return self._sock.sendto(data, dest)

    def leave(self) -> None:
        """Leave the group and release the underlying socket.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.group.leave(self)
        self._sock.close()

    def close(self) -> None:
        """Alias for :meth:`leave`, so it closes like every other socket."""
        self.leave()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MulticastSocket({self.host}:{self.local_port} in {self.group.group})"
