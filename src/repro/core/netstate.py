"""Network-state interface: the framework's aggregated view of the system.

"The network state interface is a generic component that encapsulates
the state of the system.  This includes CPU load, available memory,
network bandwidth, latency, and jitter.  The current implementation ...
uses [SNMP] ... to directly query the SNMP MIB" (paper Sec. 5.5).

:class:`NetworkStateInterface` owns one SNMP manager and a set of
*probes* — (host, OID, output-parameter, transform) bindings — and turns
a poll into the flat ``observed`` dict the inference engine consumes.
Standard probes cover the host extension agent (CPU, page faults, free
memory, access-link metrics) and the LAN switch's ifTable (link speed →
available bandwidth).

Failure semantics: a probe whose agent times out serves its *last known
value* for up to :data:`STALE_GRACE` virtual seconds (marked in
``stale_parameters``); past the grace window the parameter drops out of
the observed dict and the engine runs on whatever remains.  When *every*
probe has gone dark the interface records it in ``dark_since``, and once
that outlasts the grace it reports
:attr:`~NetworkStateInterface.degraded`, so the inference layer can fall
back to its conservative tier —
adaptation degrades gracefully when the management plane itself is
degraded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..network.clock import Scheduler
from ..network.simnet import Network
from ..network.udp import DatagramSocket
from ..snmp.ber import Counter32, Gauge32, Integer, TimeTicks
from ..snmp.errors import SnmpError
from ..snmp.manager import SnmpManager
from ..snmp.oids import MIB2, OID, TASSL

__all__ = ["Probe", "NetworkStateInterface", "POLL_TIMEOUT", "POLL_RETRIES", "STALE_GRACE"]

#: Per-attempt timeout (virtual seconds) and retries of the GETs a poll issues.
POLL_TIMEOUT = 0.5
POLL_RETRIES = 1
#: How long (virtual seconds) a failed probe may serve its last known
#: value before the parameter goes dark.
STALE_GRACE = 3.0

#: Converts a raw BER value into a float for the observed dict.
Transform = Callable[[object], float]


def _numeric(value: object) -> float:
    """Default transform: unwrap any numeric BER type."""
    if isinstance(value, (Gauge32, Counter32, TimeTicks, Integer)):
        return float(value.value)
    raise SnmpError(f"non-numeric SNMP value: {value!r}")


@dataclass(frozen=True)
class Probe:
    """One monitored MIB variable.

    ``parameter`` is the key it lands under in the observed dict;
    ``transform`` converts the BER value (e.g. µs → ms).
    """

    host: str
    oid: OID
    parameter: str
    transform: Transform = _numeric


class NetworkStateInterface:
    """Aggregated SNMP polling for one client's adaptation loop.

    Example
    -------
    ``standard_host_probes`` + ``switch_bandwidth_probe`` cover the
    paper's parameter list; :meth:`poll` returns e.g.::

        {"cpu_load": 42.0, "page_faults": 31.0, "free_memory_kib": ...,
         "link_latency_ms": 0.5, "link_loss_ppm": 0.0,
         "bandwidth_bps": 100000000.0}
    """

    def __init__(
        self,
        network: Network,
        host: str,
        community: str = "public",
    ) -> None:
        self.network = network
        self.manager = SnmpManager(
            DatagramSocket(network, host),
            network.scheduler,
            community=community,
            timeout=POLL_TIMEOUT,
            retries=POLL_RETRIES,
        )
        self.probes: list[Probe] = []
        self.poll_count = 0
        self.probe_failures = 0
        self.stale_served = 0
        self.last_observed: dict[str, float] = {}
        #: parameters served from cache on the most recent poll
        self.stale_parameters: set[str] = set()
        #: virtual time each parameter was last freshly observed
        self._last_fresh: dict[str, float] = {}
        #: set when a poll yields no fresh observation at all
        self.dark_since: Optional[float] = None

    # ------------------------------------------------------------------
    # probe registration
    # ------------------------------------------------------------------
    def add_probe(self, probe: Probe) -> None:
        """Register one monitored variable."""
        self.probes.append(probe)

    def add_standard_host_probes(self, host: str) -> None:
        """The extension agent's full parameter set for ``host``."""
        us_to_ms: Transform = lambda v: _numeric(v) / 1000.0
        # the TASSL bandwidth gauge is in bytes/second on the wire; the
        # observation key's `_bps` suffix promises bits/second
        bytes_to_bits: Transform = lambda v: _numeric(v) * 8.0
        for oid, parameter, transform in (
            (TASSL.hostCpuLoad, "cpu_load", _numeric),
            (TASSL.hostPageFaults, "page_faults", _numeric),
            (TASSL.hostFreeMemory, "free_memory_kib", _numeric),
            (TASSL.linkBandwidth, "bandwidth_bps", bytes_to_bits),
            (TASSL.linkLatencyUs, "link_latency_ms", us_to_ms),
            (TASSL.linkJitterUs, "link_jitter_ms", us_to_ms),
            (TASSL.linkLossPpm, "link_loss_ppm", _numeric),
        ):
            self.add_probe(Probe(host, oid, parameter, transform))

    def add_switch_bandwidth_probe(self, element: str, if_index: int) -> None:
        """Monitor a switch port's speed as ``bandwidth_bps`` (MIB-II
        ifSpeed is already bits/s)."""
        self.add_probe(Probe(element, MIB2.ifSpeed.child(if_index), "bandwidth_bps"))

    def add_switch_octet_probes(self, element: str, if_index: int) -> None:
        """Monitor a switch port's octet counters as ``if<N>_in_octets`` /
        ``if<N>_out_octets`` (utilisation estimation)."""
        self.add_probe(
            Probe(element, MIB2.ifInOctets.child(if_index), f"if{if_index}_in_octets")
        )
        self.add_probe(
            Probe(element, MIB2.ifOutOctets.child(if_index), f"if{if_index}_out_octets")
        )

    # ------------------------------------------------------------------
    # polling
    # ------------------------------------------------------------------
    def poll(self) -> dict[str, float]:
        """Query every probe; failed probes serve stale values in grace.

        Probes against the same host are batched into a single GET —
        one round trip per agent per cycle.  A probe that fails serves
        its last known value for up to :data:`STALE_GRACE` virtual
        seconds (and lands in :attr:`stale_parameters`); beyond that the
        parameter drops out.  Failures are counted either way.
        """
        self.poll_count += 1
        now = self.network.scheduler.clock.now
        observed: dict[str, float] = {}
        fresh_any = False
        self.stale_parameters = set()
        by_host: dict[str, list[Probe]] = {}
        for p in self.probes:
            by_host.setdefault(p.host, []).append(p)
        for host, probes in sorted(by_host.items()):
            try:
                results = self.manager.get(host, [p.oid for p in probes])
            except SnmpError:
                self.probe_failures += len(probes)
                for p in probes:
                    self._serve_stale(p.parameter, now, observed)
                continue
            values = {oid: v for oid, v in results}
            for p in probes:
                try:
                    observed[p.parameter] = p.transform(values[p.oid])
                except (KeyError, SnmpError):
                    self.probe_failures += 1
                    self._serve_stale(p.parameter, now, observed)
                else:
                    self._last_fresh[p.parameter] = now
                    fresh_any = True
        if fresh_any or not self.probes:
            self.dark_since = None
        elif self.dark_since is None:
            self.dark_since = now
        self.last_observed = observed
        return observed

    def _serve_stale(self, parameter: str, now: float, observed: dict[str, float]) -> None:
        """Reuse the last fresh value of ``parameter`` while in grace."""
        last = self._last_fresh.get(parameter)
        if last is None or now - last > STALE_GRACE:
            return
        if parameter in self.last_observed:
            observed[parameter] = self.last_observed[parameter]
            self.stale_parameters.add(parameter)
            self.stale_served += 1

    # ------------------------------------------------------------------
    # degradation surface
    # ------------------------------------------------------------------
    def dark_for(self) -> float:
        """Virtual seconds since the management plane went dark (0 if lit)."""
        if self.dark_since is None:
            return 0.0
        return self.network.scheduler.clock.now - self.dark_since

    @property
    def degraded(self) -> bool:
        """Dark for longer than the grace window: stale values are gone
        and the inference layer should fall back conservatively."""
        return self.dark_for() > STALE_GRACE

    def close(self) -> None:
        """Release the underlying manager socket."""
        self.manager.close()
