"""fabric_membership_churn / fabric_cast_steady — the routing fabric's two planes.

Both run on the two-domain hierarchy of ``experiments/multicast_scale``
(core -> per-domain aggregation -> 2 sub-aggregates -> 4 access routers
each), rebuilt here from the fabric's public API: 256 attached hosts,
128 of them group members, one fixed sender.

* churn (control plane, writes): op = one seeded leave + one join, a
  sub-aggregate link flap every 25th op, then one verification cast.
* steady (data plane, reads): static membership; op = one 200-byte
  group send over the tree, run to delivery.
"""

from __future__ import annotations

from repro.network.clock import Scheduler
from repro.network.multicast import MulticastGroup, MulticastSocket
from repro.network.routing import MulticastFabric
from repro.network.simnet import Network

from .base import NETWORK_SEED, CheckResult, Workload, network_totals

GROUP = "239.77.0.1"
PORT = 5000
DOMAINS = ("east", "west")
SUBAGGS_PER_DOMAIN = 2
ACCESS_PER_SUBAGG = 4
HOSTS = 256
MEMBERS = 128
SENDER = "tx"
FLAP_EVERY = 25
#: the longest tree path is 8 hops of <= 0.5 ms
QUIESCE_S = 0.01


class _FabricWorkload(Workload):
    def setup(self) -> None:
        rng = self.rng
        self.sched = sched = Scheduler()
        self.net = net = Network(sched, seed=NETWORK_SEED)
        self.fabric = fab = MulticastFabric(net)
        fab.add_domain("core")
        fab.add_router("core0", "core", latency=0.0005)
        access: list[str] = []
        self.subagg_links: list[tuple[str, str]] = []
        for dom in DOMAINS:
            fab.add_domain(dom, parent="core")
            agg = f"agg_{dom}"
            fab.add_router(agg, dom, parent="core0", latency=0.0005)
            for s in range(SUBAGGS_PER_DOMAIN):
                sub = f"sub_{dom}{s}"
                fab.add_router(sub, dom, parent=agg, latency=0.0003)
                self.subagg_links.append((sub, agg))
                for a in range(ACCESS_PER_SUBAGG):
                    acc = f"acc_{dom}{s}{a}"
                    fab.add_router(acc, dom, parent=sub, latency=0.0002)
                    access.append(acc)
        fab.attach_host(SENDER, access[0], latency=0.0001)
        hosts = [f"h{m:03d}" for m in range(HOSTS)]
        for m, host in enumerate(hosts):
            fab.attach_host(host, access[m % len(access)], latency=0.0001)
        self.group = MulticastGroup(net, GROUP, PORT, fabric=fab)
        #: (host, virtual arrival time, payload) of the cast in flight
        self.received: list[tuple[str, float, bytes]] = []
        rng.shuffle(hosts)
        self.members = hosts[:MEMBERS]
        self.idle = hosts[MEMBERS:]
        self.sockets = {host: self._join(host) for host in self.members}
        self.sender = MulticastSocket(net, SENDER, self.group)
        self.membership_ops = 0

    def _join(self, host: str) -> MulticastSocket:
        def on_receive(data: bytes, _src: tuple[str, int]) -> None:
            self.received.append((host, self.sched.clock.now, data))

        return MulticastSocket(self.net, host, self.group, on_receive=on_receive)

    def _cast(self, payload: bytes) -> None:
        self.received.clear()
        self.payload = payload
        self.issued_at = self.sched.clock.now
        self.sender.send(payload)
        self.sched.run_for(QUIESCE_S)

    def check(self, index: int) -> CheckResult:
        errors: list[str] = []
        delivered = sorted(host for host, _at, _data in self.received)
        tracked = sorted(self.members)
        if delivered != tracked:
            errors.append(
                f"cast reached {len(delivered)} hosts, {len(tracked)} members tracked"
                f" (symmetric difference {sorted(set(delivered) ^ set(tracked))[:4]})"
            )
        if sorted(self.fabric.members(GROUP)) != sorted([*tracked, SENDER]):
            errors.append("fabric.members() disagrees with the joins and leaves issued")
        if any(data != self.payload for _host, _at, data in self.received):
            errors.append("a member received a different payload")
        last = max((at for _host, at, _data in self.received), default=self.issued_at)
        return errors, last - self.issued_at, repr(delivered).encode()

    def totals(self) -> dict[str, float]:
        out = network_totals(self.net)
        fab = self.fabric
        out.update(
            {
                "fabric.rebuilds": fab.rebuilds,
                "fabric.plan_builds": fab.plan_builds,
                "fabric.casts": fab.casts,
                "fabric.repairs": fab.repairs,
                "fabric.membership_ops": self.membership_ops,
            }
        )
        return out


class FabricMembershipChurn(_FabricWorkload):
    name = "fabric_membership_churn"
    mix_period = FLAP_EVERY

    def op(self, index: int) -> None:
        rng = self.rng
        members, idle = self.members, self.idle
        leaver = members.pop(rng.randrange(len(members)))
        joiner = idle.pop(rng.randrange(len(idle)))
        self.sockets.pop(leaver).leave()
        idle.append(leaver)
        self.sockets[joiner] = self._join(joiner)
        members.append(joiner)
        self.membership_ops += 2
        if index % FLAP_EVERY == FLAP_EVERY - 1:
            a, b = self.subagg_links[rng.randrange(len(self.subagg_links))]
            self.net.set_link_up(a, b, False)
            self.net.set_link_up(a, b, True)
        self._cast(b"verify-%d" % index)


class FabricCastSteady(_FabricWorkload):
    name = "fabric_cast_steady"

    def op(self, index: int) -> None:
        self._cast(self.rng.randbytes(200))
