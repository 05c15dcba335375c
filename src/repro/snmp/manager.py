"""SNMP manager: the framework's window onto network/system state.

"The current implementation of the network state interface uses [SNMP] ...
It uses the IP address of the network element, the community string, and
the object identifier (OID) of the parameters of interest (bandwidth, CPU
load, page-faults, etc.) to directly query the SNMP MIB" (paper Sec. 5.5).

The manager issues GET / GETNEXT / SET requests through a datagram socket
and, because the whole substrate is a single-threaded discrete-event
simulation, *pumps the shared scheduler* while waiting — a synchronous
surface over an asynchronous wire, with virtual-time timeouts and retries.
"""

from __future__ import annotations

from typing import Sequence as Seq

from .._locks import make_lock
from ..network.clock import Scheduler
from ..network.udp import DatagramTransport

from .ber import BerError, EndOfMibView, Null
from .errors import ErrorStatus, SnmpCircuitOpen, SnmpErrorResponse, SnmpProtocolError, SnmpTimeout
from .oids import OID
from .pdu import PDU_GET, PDU_GETBULK, PDU_GETNEXT, PDU_RESPONSE, PDU_SET, SNMP_PORT, VERSION_2C
from .pdu import SnmpMessage, VarBind

__all__ = ["SnmpManager", "CircuitBreaker", "VarBind"]

#: Retry backoff, in multiples of the attempt timeout: after the *k*-th
#: failed attempt the manager sleeps ``min(BACKOFF_MAX, BACKOFF_BASE *
#: BACKOFF_MULTIPLIER**k)`` timeouts, scaled by a deterministic jitter
#: factor in ``1 ± JITTER_FRAC``.
BACKOFF_BASE = 0.5
BACKOFF_MULTIPLIER = 2.0
BACKOFF_MAX = 8.0
JITTER_FRAC = 0.1

#: Per-agent circuit breaker (see :class:`CircuitBreaker`): this many
#: consecutive request failures open it for ``BREAKER_COOLDOWN`` virtual
#: seconds, doubling per failed probe up to ``BREAKER_MAX_COOLDOWN``.
BREAKER_THRESHOLD = 4
BREAKER_COOLDOWN = 5.0
BREAKER_MAX_COOLDOWN = 60.0


def _wake() -> None:
    """Sentinel scheduler event: exists only to advance the virtual clock."""


def _check_increasing(previous: OID, oid: OID) -> None:
    """A walk's answers must ascend; an agent that repeats or rewinds an
    OID would keep the walk going forever."""
    if not previous < oid:
        raise SnmpProtocolError(f"OID not increasing: {oid} after {previous}")


class CircuitBreaker:
    """Per-agent failure gate: closed → open → half-open → closed.

    ``threshold`` consecutive request-level failures open the breaker for
    ``cooldown`` virtual seconds, during which requests fail fast with
    :class:`~repro.snmp.errors.SnmpCircuitOpen` (no wire traffic, no
    timeout wait — polling a dark agent becomes cheap).  After the
    cooldown one probe request is admitted (*half-open*): success closes
    the breaker, another failure re-opens it for a doubled (capped)
    cooldown.
    """

    __slots__ = (
        "threshold", "cooldown", "max_cooldown",
        "failures", "open_until", "half_open", "opens", "_current_cooldown",
    )

    def __init__(
        self, threshold: int, cooldown: float, max_cooldown: float
    ) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.max_cooldown = max_cooldown
        self.failures = 0          # consecutive request-level failures
        self.open_until = 0.0      # virtual time the open window closes
        self.half_open = False     # a probe request is in flight
        self.opens = 0             # times the breaker tripped
        self._current_cooldown = cooldown

    def admit(self, now: float) -> bool:
        """Whether a request may hit the wire at virtual time ``now``."""
        if self.failures < self.threshold and not self.half_open:
            return True
        if now >= self.open_until:
            self.half_open = True  # one probe allowed through
            return True
        return False

    def record_success(self) -> None:
        self.failures = 0
        self.half_open = False
        self._current_cooldown = self.cooldown

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.half_open:
            # the probe failed: back off harder
            self._current_cooldown = min(self.max_cooldown, self._current_cooldown * 2.0)
            self.half_open = False
            self.open_until = now + self._current_cooldown
            self.opens += 1
        elif self.failures == self.threshold:
            self.open_until = now + self._current_cooldown
            self.opens += 1

    @property
    def is_open(self) -> bool:
        return self.failures >= self.threshold


class SnmpManager:
    """Issues SNMPv2c requests and synchronously collects replies.

    Parameters
    ----------
    socket:
        An unbound datagram endpoint on the management station's host —
        anything satisfying the
        :class:`~repro.network.udp.DatagramTransport` protocol
        (e.g. :class:`~repro.network.udp.DatagramSocket`).
    scheduler:
        The shared simulation scheduler; pumped while waiting for replies.
    community:
        Community string presented with every request.
    timeout / retries:
        Virtual-time seconds to wait per attempt, and attempts beyond the
        first before raising :class:`~repro.snmp.errors.SnmpTimeout`.
        Failed attempts back off exponentially (``BACKOFF_*``, with
        jitter that is a pure function of (request id, attempt), so runs
        replay byte-identically while concurrent managers still
        decorrelate), and each agent has a circuit breaker
        (``BREAKER_*``) that makes requests to a dark agent fail fast
        with :class:`~repro.snmp.errors.SnmpCircuitOpen`.
    """

    def __init__(
        self,
        socket: DatagramTransport,
        scheduler: Scheduler,
        community: str = "public",
        timeout: float = 1.0,
        retries: int = 2,
    ) -> None:
        self._sock = socket
        if self._sock.port is None:
            self._sock.bind_ephemeral()
        self._sock.on_receive = self._on_datagram
        self.scheduler = scheduler
        self.community = community
        self.timeout = timeout
        self.retries = retries
        self._breakers: dict[tuple[str, int], CircuitBreaker] = {}
        self._next_request_id = 1
        #: ids of the requests waiting for a reply; more than one when a
        #: callback run by the scheduler pump issues a request of its own
        self._in_flight: set[int] = set()
        self._responses: dict[int, SnmpMessage] = {}
        # Guards the shared maps and counters against a datagram callback
        # running on a poll/transport thread.  Held only for short
        # dict/counter critical sections — never across
        # ``scheduler.step()``, which re-enters ``_on_datagram`` on the
        # *same* thread and would self-deadlock.
        self._mu = make_lock("SnmpManager._mu")
        # observability
        self.requests_sent = 0
        self.timeouts = 0
        self.fast_failures = 0
        #: virtual-time send timestamp of each attempt of the most recent
        #: request (regression surface for retry spacing)
        self.last_attempt_times: list[float] = []

    # ------------------------------------------------------------------
    # wire handling
    # ------------------------------------------------------------------
    def _on_datagram(self, data: bytes, src: tuple[str, int]) -> None:
        try:
            message = SnmpMessage.from_bytes(data)
        except (BerError, SnmpProtocolError):
            return
        if message.tag != PDU_RESPONSE:
            return
        with self._mu:
            # a reply nobody waits for (unsolicited, or late for a request
            # that gave up) would otherwise stay in the map forever
            if message.request_id in self._in_flight:
                self._responses[message.request_id] = message

    def _request(
        self,
        agent: tuple[str, int],
        pdu_tag: int,
        varbinds: Seq[VarBind],
        slot1: int = 0,
        slot2: int = 0,
    ) -> list[VarBind]:
        with self._mu:
            request_id = self._next_request_id
            self._next_request_id += 1
        request = SnmpMessage(VERSION_2C, self.community, pdu_tag, request_id, slot1, slot2, tuple(varbinds))
        wire = request.to_bytes()

        breaker = self._breaker(agent)
        if not breaker.admit(self.scheduler.clock.now):
            with self._mu:
                self.fast_failures += 1
            raise SnmpCircuitOpen(agent, breaker.open_until)

        with self._mu:
            self.last_attempt_times = []
            self._in_flight.add(request_id)
        try:
            for attempt in range(self.retries + 1):
                with self._mu:
                    self.requests_sent += 1
                    self.last_attempt_times.append(self.scheduler.clock.now)
                self._sock.sendto(wire, agent)
                deadline = self.scheduler.clock.now + self.timeout
                # Pump the simulation until our response lands or time expires.
                while self.scheduler.clock.now < deadline:
                    if request_id in self._responses:
                        break
                    if not self.scheduler.step():
                        # Event queue drained: nothing can arrive before the
                        # deadline, but retries must still be spaced in virtual
                        # time — schedule a sentinel wake-up at the deadline so
                        # the next step() advances the clock instead of burning
                        # every attempt in the same instant.
                        self.scheduler.call_at(deadline, _wake)
                    if self.scheduler.clock.now > deadline:
                        break
                # Atomic claim: check-then-pop as two steps would race with a
                # late datagram landing between them on a transport thread.
                with self._mu:
                    response = self._responses.pop(request_id, None)
                if response is not None:
                    breaker.record_success()
                    return response.result()
                with self._mu:
                    self.timeouts += 1
                if attempt < self.retries:
                    self._sleep(self._backoff_delay(request_id, attempt))
        finally:
            with self._mu:
                self._in_flight.discard(request_id)
                self._responses.pop(request_id, None)
        breaker.record_failure(self.scheduler.clock.now)
        raise SnmpTimeout(f"no response from {agent} after {self.retries + 1} attempts")

    # ------------------------------------------------------------------
    # retry/backoff machinery
    # ------------------------------------------------------------------
    def _breaker(self, agent: tuple[str, int]) -> CircuitBreaker:
        with self._mu:
            breaker = self._breakers.get(agent)
            if breaker is None:
                breaker = CircuitBreaker(BREAKER_THRESHOLD, BREAKER_COOLDOWN, BREAKER_MAX_COOLDOWN)
                self._breakers[agent] = breaker
        return breaker

    def breaker_state(self, host: str, port: int = SNMP_PORT) -> str:
        """Observability: 'closed', 'open', or 'half-open' for one agent."""
        breaker = self._breakers.get((host, port))
        if breaker is None or not breaker.is_open:
            return "closed"
        return "half-open" if self.scheduler.clock.now >= breaker.open_until else "open"

    def _backoff_delay(self, request_id: int, attempt: int) -> float:
        """Exponential backoff with deterministic jitter.

        The jitter factor is a hash of (request id, attempt) mapped into
        ``1 ± JITTER_FRAC`` — reproducible across replays of the same run
        without any shared RNG state.
        """
        delay = min(
            BACKOFF_MAX * self.timeout,
            BACKOFF_BASE * self.timeout * BACKOFF_MULTIPLIER ** attempt,
        )
        h = (request_id * 2654435761 + attempt * 40503) % 10_000
        return delay * (1.0 + JITTER_FRAC * (h / 5_000.0 - 1.0))

    def _sleep(self, duration: float) -> None:
        """Pump the scheduler for ``duration`` virtual seconds."""
        if duration <= 0.0:
            return
        resume = self.scheduler.clock.now + duration
        while self.scheduler.clock.now < resume:
            if not self.scheduler.step():
                self.scheduler.call_at(resume, _wake)

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    def get(self, host: str, oids: Seq[OID], port: int = SNMP_PORT) -> list[VarBind]:
        """GET one or more scalars from ``host``'s agent."""
        return self._request((host, port), PDU_GET, [(OID(o), Null()) for o in oids])

    def get_scalar(self, host: str, oid: OID, port: int = SNMP_PORT) -> object:
        """GET a single object; returns just its value."""
        return self.get(host, [oid], port)[0][1]

    def get_next(self, host: str, oid: OID, port: int = SNMP_PORT) -> VarBind:
        """GETNEXT a single OID."""
        return self._request((host, port), PDU_GETNEXT, [(OID(oid), Null())])[0]

    def walk(self, host: str, root: OID, port: int = SNMP_PORT) -> list[VarBind]:
        """Traverse the subtree under ``root`` via repeated GETNEXT; an
        answer not past the OID asked for raises :class:`SnmpProtocolError`."""
        out: list[VarBind] = []
        root = OID(root)
        current = root
        while True:
            try:
                oid, value = self.get_next(host, current, port)
            except SnmpErrorResponse as exc:
                if exc.status == ErrorStatus.NO_SUCH_NAME:
                    break  # walked off the end of the MIB
                raise
            if not root.is_prefix_of(oid):
                break
            _check_increasing(current, oid)
            out.append((oid, value))
            current = oid
        return out

    def set(self, host: str, varbinds: Seq[VarBind], port: int = SNMP_PORT) -> list[VarBind]:
        """SET one or more writable objects."""
        return self._request((host, port), PDU_SET, varbinds)

    def get_bulk(
        self,
        host: str,
        oids: Seq[OID],
        non_repeaters: int = 0,
        max_repetitions: int = 10,
        port: int = SNMP_PORT,
    ) -> list[VarBind]:
        """GETBULK: batched GETNEXT traversal in one round trip."""
        return self._request(
            (host, port),
            PDU_GETBULK,
            [(OID(o), Null()) for o in oids],
            slot1=non_repeaters,
            slot2=max_repetitions,
        )

    def bulk_walk(
        self, host: str, root: OID, max_repetitions: int = 20, port: int = SNMP_PORT
    ) -> list[VarBind]:
        """Traverse a subtree with GETBULK — far fewer round trips than
        :meth:`walk` on large tables; an OID not past the previous one is
        refused as :meth:`walk` refuses it."""
        out: list[VarBind] = []
        root = OID(root)
        current = root
        while True:
            chunk = self.get_bulk(
                host, [current], max_repetitions=max_repetitions, port=port
            )
            progressed = False
            done = False
            for oid, value in chunk:
                if isinstance(value, EndOfMibView) or not root.is_prefix_of(oid):
                    done = True
                    break
                _check_increasing(current, oid)
                out.append((oid, value))
                current = oid
                progressed = True
            if done or not progressed:
                break
        return out

    def close(self) -> None:
        """Release the manager's socket."""
        self._sock.close()
