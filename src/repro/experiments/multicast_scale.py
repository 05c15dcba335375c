"""MCAST — flat unicast fan-out vs. tree replication at scale.

Not a paper figure: an engineering experiment over the network substrate.
One sender multicasts to an M-member group spread across a two-domain
router fabric (core → per-domain aggregation → sub-aggregation → access),
once through the flat per-member unicast registry and once through the
:class:`~repro.network.routing.MulticastFabric` distribution tree.  Both
modes must deliver to the identical member set (the hypothesis
equivalence property pins this); what varies is the *physical* packet
count per group send — ``Network.packets_transmitted``, one per link hop
actually carried:

* flat: every member costs a full unicast path, so a shared backbone
  link is billed once per member — O(members × path length);
* tree: the packet crosses each tree edge once and replicates only at
  branch points — O(tree edges) ≈ members + routers.

Every number here is a deterministic packet count on the virtual-time
simulator (no wall clock), so the test suite pins exact values across
machines.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..network.clock import Scheduler
from ..network.multicast import MulticastGroup, MulticastSocket
from ..network.routing import MulticastFabric
from ..network.simnet import Network
from .harness import ExperimentResult

__all__ = ["build_fabric_world", "run_multicast_scale", "main"]

GROUP = "239.77.0.1"
PORT = 5000

#: two domains, each: aggregation router -> 2 sub-aggregates -> 4 access
#: routers apiece, so a cross-domain unicast costs 8 hops and the average
#: flat path is >6 hops at an even member spread
DOMAINS = ("east", "west")
SUBAGGS_PER_DOMAIN = 2
ACCESS_PER_SUBAGG = 4


def build_fabric_world(
    members: int, seed: int = 0
) -> tuple[Scheduler, Network, MulticastFabric, list[str]]:
    """Two-domain hierarchy with ``members`` hosts spread round-robin.

    Returns ``(scheduler, network, fabric, member_hosts)``; the sender
    host ``tx`` is attached to the first east access router and is *not*
    in the returned member list.
    """
    sched = Scheduler()
    net = Network(sched, seed=seed)
    fab = MulticastFabric(net)
    fab.add_domain("core")
    fab.add_router("core0", "core", latency=0.0005)
    access: list[str] = []
    for dom in DOMAINS:
        fab.add_domain(dom, parent="core")
        agg = f"agg_{dom}"
        fab.add_router(agg, dom, parent="core0", latency=0.0005)
        for s in range(SUBAGGS_PER_DOMAIN):
            sub = f"sub_{dom}{s}"
            fab.add_router(sub, dom, parent=agg, latency=0.0003)
            for a in range(ACCESS_PER_SUBAGG):
                acc = f"acc_{dom}{s}{a}"
                fab.add_router(acc, dom, parent=sub, latency=0.0002)
                access.append(acc)
    fab.attach_host("tx", access[0], latency=0.0001)
    hosts = []
    for m in range(members):
        host = f"m{m:04d}"
        fab.attach_host(host, access[m % len(access)], latency=0.0001)
        hosts.append(host)
    return sched, net, fab, hosts


def _measure(tree: bool, members: int, sends: int, seed: int) -> dict:
    """Packets per group send for one mode at one group size."""
    sched, net, fab, hosts = build_fabric_world(members, seed=seed)
    group = MulticastGroup(net, GROUP, PORT, fabric=fab if tree else None)
    received = [0]

    def on_rx(data: bytes, src: tuple) -> None:
        received[0] += 1

    sockets = [MulticastSocket(net, host, group, on_receive=on_rx) for host in hosts]
    sender = MulticastSocket(net, "tx", group)
    try:
        base_tx = net.packets_transmitted
        for i in range(sends):
            sender.send(b"frame-%d" % i)
            sched.run()
        tree_edges = len(fab.group_edges(GROUP)) if tree else 0
    finally:
        sender.leave()
        for sock in sockets:
            sock.leave()
    return {
        "tx_per_send": (net.packets_transmitted - base_tx) // sends,
        "delivered": received[0],
        "tree_edges": tree_edges,
    }


def run_multicast_scale(
    member_counts: Sequence[int] = (16, 64, 256),
    sends: int = 4,
    seed: int = 0,
) -> ExperimentResult:
    """Flat vs. tree physical packet cost across group sizes."""
    result = ExperimentResult(
        "MCAST",
        "flat unicast fan-out vs. tree replication, two-domain fabric",
        columns=(
            "members",
            "flat_tx_per_send",
            "tree_tx_per_send",
            "tree_edges",
            "reduction",
            "delivered_each",
        ),
    )
    for members in member_counts:
        flat = _measure(False, members, sends, seed)
        tree = _measure(True, members, sends, seed)
        if flat["delivered"] != tree["delivered"]:  # pragma: no cover
            raise AssertionError(
                f"M={members}: flat delivered {flat['delivered']} "
                f"!= tree {tree['delivered']}"
            )
        result.add_row(
            members=members,
            flat_tx_per_send=flat["tx_per_send"],
            tree_tx_per_send=tree["tx_per_send"],
            tree_edges=tree["tree_edges"],
            reduction=flat["tx_per_send"] / tree["tx_per_send"],
            delivered_each=tree["delivered"] // sends,
        )
    result.note(
        "tx_per_send is Network.packets_transmitted (physical link hops) per "
        "group send; both modes deliver to the identical member set"
    )
    result.note(
        "flat cost grows with members x path length; tree cost is one packet "
        "per tree edge (~members + routers), so the gap widens with depth"
    )
    return result


def main() -> ExperimentResult:  # pragma: no cover
    res = run_multicast_scale()
    print(res.format_table(float_fmt="{:.2f}"))
    return res


if __name__ == "__main__":  # pragma: no cover
    main()
