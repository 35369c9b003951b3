"""Message transport across the simulated cluster.

The :class:`Network` connects :class:`~repro.netsim.host.Host` objects to
one :class:`~repro.netsim.ethernet.EthernetSegment` and moves
:class:`Packet` objects between named ports.  Both the PVM workalike and
the MESSENGERS daemons are clients of this layer; the *difference* between
them (buffer copies vs zero-copy migration) is charged by those layers,
not here — the wire treats everyone equally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..des import Simulator
from ..des.errors import SimOverloadError
from .costs import CostModel, DEFAULT_COSTS
from .ethernet import EthernetSegment
from .host import Host, HostCrashedError

__all__ = ["Packet", "Network", "build_lan"]

#: Wire size of a transport-level acknowledgement (one minimum frame).
ACK_BYTES = 64


@dataclass(slots=True)
class Packet:
    """One unit of delivery between host ports.

    ``payload`` is an arbitrary Python object (never serialized for real —
    cost is charged from ``size_bytes``).  ``send_time`` is stamped by the
    network for latency accounting.  ``seq`` is assigned by the reliable
    channel (ports opted in via :meth:`Network.set_reliable`, active only
    when an attached fault plan makes the wire lossy); unreliable traffic
    leaves it ``None``.
    """

    src: str
    dst: str
    port: str
    payload: Any
    size_bytes: int
    send_time: float = field(default=0.0)
    seq: Optional[int] = field(default=None)
    #: Absolute virtual-time deadline of the request this packet carries,
    #: or ``None``.  The reliable channel stops retransmitting a packet
    #: whose deadline has passed — the bytes could only arrive too late
    #: to matter, so the capacity is better spent on live requests.
    deadline_s: Optional[float] = field(default=None)

    @property
    def is_local(self) -> bool:
        return self.src == self.dst


class Network:
    """Registry of hosts plus the shared segment connecting them."""

    def __init__(
        self,
        sim: Simulator,
        costs: CostModel = DEFAULT_COSTS,
        segment: Optional[EthernetSegment] = None,
    ):
        self.sim = sim
        self.costs = costs
        self.segment = segment or EthernetSegment(sim, costs)
        self._hosts: dict[str, Host] = {}
        #: Count of delivered packets per (src, dst) pair.
        self.delivered: int = 0
        #: Attached :class:`~repro.faults.FaultInjector`, or None.
        self.faults = None
        self._lossy = False  # cached injector.perturbs
        #: TX-pump starts per host — exactly 1 even across crash/restart
        #: cycles (a double-started pump would break per-source FIFO).
        self.tx_pumps_started: dict[str, int] = {}
        self._ack_pumps_started: set[str] = set()
        #: Ports that opted into at-least-once + dedup delivery.
        self._reliable_ports: set[str] = set()
        self._next_seq: dict[tuple, int] = {}
        self._seen_seqs: dict[str, set] = {}
        self._awaiting_ack: dict[tuple, Any] = {}
        self._crash_listeners: list = []
        self._restart_listeners: list = []
        #: Knowledge-phase listeners: run when a crash becomes *known*
        #: (immediately in oracle mode; at detection time otherwise).
        self._failure_listeners: list = []
        #: Listeners for partition heals: ``listener(a, b)`` runs when
        #: the fault injector restores the carrier on a cut link.
        self._heal_listeners: list = []
        #: Hosts that crashed but whose failure is not yet announced.
        self._unannounced_crashes: set[str] = set()
        #: None = oracle mode (failures announced at crash time).  A
        #: float arms detection mode: announcements wait for
        #: :meth:`announce_failure` (the failure detector), and each
        #: crash schedules a foreground no-op timeout this many seconds
        #: out so the simulation cannot drain before the detector has
        #: had its chance to notice.
        self._detection_horizon_s: Optional[float] = None
        #: Credit window for reliable channels (None = unlimited).
        self._flow_credits: Optional[int] = None
        self._inflight: dict[tuple, int] = {}
        #: Counter of sends refused by flow control (for reporting).
        self.overloads = 0

    # -- topology ---------------------------------------------------------

    def add_host(self, host: Host) -> Host:
        """Attach ``host`` to this network and start its NIC TX pump.

        Each host transmits through a single FIFO queue, so packets from
        the same source are delivered in send order (the in-order
        guarantee PVM and the MESSENGERS daemons both rely on).

        Re-attaching the *same* host object (a restart after a crash) is
        idempotent: its pump is already parked on the surviving ``_tx``
        store and is not started a second time.  A *different* host
        object under a taken name is still an error.
        """
        existing = self._hosts.get(host.name)
        if existing is not None and existing is not host:
            raise ValueError(f"duplicate host name {host.name!r}")
        self._hosts[host.name] = host
        host.network = self
        if host.name not in self.tx_pumps_started:
            self.tx_pumps_started[host.name] = 1
            self.sim.process(self._tx_pump(host), daemon=True)
        if self._lossy:
            self._start_ack_pump(host)
        return host

    # -- faults ------------------------------------------------------------

    def attach_faults(self, injector) -> None:
        """Called by :class:`~repro.faults.FaultInjector` on construction."""
        self.faults = injector
        self._lossy = injector.perturbs
        if self._lossy:
            for host in self._hosts.values():
                self._start_ack_pump(host)

    def _start_ack_pump(self, host: Host) -> None:
        if host.name not in self._ack_pumps_started:
            self._ack_pumps_started.add(host.name)
            self.sim.process(self._ack_pump(host), daemon=True)

    def set_reliable(self, port: str) -> None:
        """Opt ``port`` into at-least-once + dedup delivery.

        Free until a lossy fault plan is attached: sequence numbers,
        acks, and retransmit timers only arm when the wire can actually
        lose packets.
        """
        self._reliable_ports.add(port)

    def set_flow_control(self, credits: Optional[int]) -> None:
        """Bound every reliable channel to ``credits`` unacked packets.

        Credit-based flow control: each ``(src, dst, port)`` channel may
        hold at most ``credits`` unacknowledged packets; a send beyond
        that raises :class:`~repro.des.SimOverloadError` instead of
        growing the retransmit state without bound.  ``None`` (the
        default) disarms the bound.  Only sequenced (reliable, lossy-
        plan) traffic consumes credits — there is no retransmit state to
        bound otherwise.
        """
        if credits is not None and credits < 1:
            raise ValueError(f"need at least one credit, got {credits}")
        self._flow_credits = credits

    def _release_credit(self, key: tuple) -> None:
        count = self._inflight.get(key)
        if count is not None:
            if count <= 1:
                self._inflight.pop(key, None)
            else:
                self._inflight[key] = count - 1

    def add_crash_listener(self, listener) -> None:
        """``listener(host, lost_packets)`` runs when a host crashes.

        This is the *physical* phase: the host's queues just dropped and
        anything resident on it died.  It always runs at crash time —
        a dead CPU executes nothing regardless of who knows about it.
        Recovery logic belongs in a failure listener instead.
        """
        self._crash_listeners.append(listener)

    def add_failure_listener(self, listener) -> None:
        """``listener(host)`` runs when a crash becomes *known*.

        This is the *knowledge* phase — notifications, logical-network
        repair, re-dispatch.  In oracle mode (the default) it fires
        immediately after the crash listeners; with
        :meth:`enable_detection` it waits for a failure detector to call
        :meth:`announce_failure`.
        """
        self._failure_listeners.append(listener)

    def add_restart_listener(self, listener) -> None:
        """``listener(host)`` runs when a crashed host restarts."""
        self._restart_listeners.append(listener)

    def add_heal_listener(self, listener) -> None:
        """``listener(a, b)`` runs when a partition between hosts
        ``a`` and ``b`` heals.

        Anti-entropy layers use this to lift exchange suspensions the
        moment the carrier returns, instead of waiting out a timeout.
        """
        self._heal_listeners.append(listener)

    def notify_heal(self, a: str, b: str) -> None:
        """Announce a partition heal (called by the fault injector)."""
        for listener in list(self._heal_listeners):
            listener(a, b)

    def enable_detection(self, horizon_s: float) -> None:
        """Switch crash announcements from oracle to detection mode.

        ``horizon_s`` is the attached detector's worst-case detection
        latency: every crash schedules one foreground no-op timeout that
        far out, so the event queue cannot drain between a crash and the
        detector's suspicion tick (which itself runs on background
        timeouts).  If the detector fails to announce within the
        horizon, the run ends with the casualty unrecovered — and the
        recovery layers report that loudly.
        """
        if horizon_s <= 0:
            raise ValueError(f"detection horizon must be positive, got "
                             f"{horizon_s}")
        self._detection_horizon_s = horizon_s

    @property
    def detection_enabled(self) -> bool:
        return self._detection_horizon_s is not None

    @property
    def unannounced_crashes(self) -> list[str]:
        """Hosts that are down but whose failure nobody knows about yet."""
        return sorted(self._unannounced_crashes)

    def crash_host(self, name: str) -> None:
        """Fail-stop ``name``: its CPU rejects work, its queues drop.

        Crash listeners (the physical phase) are handed the packets that
        died in the host's queues so they can identify in-flight
        casualties.  The failure announcement (the knowledge phase —
        recovery) follows immediately in oracle mode, or waits for the
        failure detector in detection mode.  Idempotent while the host
        stays down.
        """
        host = self.host(name)
        if host.crashed:
            return
        lost_items = host.crash()
        # _tx entries are (packet, done-or-None) pairs; delivery queues
        # hold bare packets.  Normalize to packets for the listeners.
        lost = [
            item[0] if isinstance(item, tuple) else item
            for item in lost_items
        ]
        if self.faults is not None and lost:
            self.faults.count("packets_lost_in_crash", len(lost))
        for listener in list(self._crash_listeners):
            listener(host, lost)
        self._unannounced_crashes.add(name)
        if self._detection_horizon_s is None:
            self.announce_failure(name)
        else:
            # Keep the simulation alive until the detector can notice.
            self.sim.timeout(self._detection_horizon_s)

    def announce_failure(self, name: str) -> bool:
        """Declare host ``name`` failed and run the recovery listeners.

        Called by a failure detector (or internally, right at crash
        time, in oracle mode).  Announcing a host that is alive or whose
        crash was already announced is a no-op returning ``False`` — a
        detector's false suspicion must not kill a healthy host's work.
        """
        if name not in self._unannounced_crashes:
            return False
        self._unannounced_crashes.discard(name)
        host = self.host(name)
        if self.faults is not None:
            self.faults.count("failures_announced")
        for listener in list(self._failure_listeners):
            listener(host)
        return True

    def restart_host(self, name: str) -> None:
        """Bring a crashed host back and re-register its ports/pumps.

        A restart of a host whose crash was never announced announces it
        first: the rebooting daemon knows it lost its volatile state (an
        incarnation-number protocol in a real system) and recovery must
        not be skipped just because the detector never fired.
        """
        host = self.host(name)
        if not host.crashed:
            return
        self.announce_failure(name)
        host.restart()
        self.add_host(host)
        for listener in list(self._restart_listeners):
            listener(host)

    def _tx_pump(self, host: Host):
        """Serially drain ``host``'s outbound queue onto the wire."""
        outbound = host.port("_tx")
        overhead = self.costs.endpoint_overhead_s
        while True:
            packet = done = None  # park holding no work item
            packet, done = yield outbound.get()
            if host.crashed:
                # A retransmit timer raced the crash; the frame dies in
                # the dead NIC.  (Normal senders cannot reach a crashed
                # host's queue — enqueue() rejects them.)
                continue
            start = self.sim.now
            yield self.sim.timeout(overhead)
            endpoint_s = overhead
            faults = self.faults
            action = "deliver"
            if not packet.is_local:
                if faults is not None and self._lossy:
                    action = faults.packet_action(packet)
                # Partitioned: the frame never gets onto the wire.
                if action != "partitioned":
                    yield self.segment.transmit(packet.size_bytes)
                    yield self.sim.timeout(overhead)
                    endpoint_s += overhead
            # Otherwise lost on the wire ("drop"), failed the receiver's
            # checksum ("corrupt"), or never sent.
            if action == "deliver" or action == "duplicate":
                dst_host = self._hosts[packet.dst]
                if dst_host.crashed:
                    if faults is not None:
                        faults.count("packets_to_dead_host")
                else:
                    yield from self._deliver(
                        packet, dst_host, 2 if action == "duplicate" else 1
                    )
                    metrics = self.sim.obs
                    if metrics is not None:
                        metrics.charge("protocol", endpoint_s)
                        metrics.span(
                            host.name,
                            f"tx:{packet.port}",
                            None,
                            start,
                            self.sim.now,
                            args={
                                "dst": packet.dst,
                                "bytes": packet.size_bytes,
                            },
                            charge=False,
                        )
            if done is not None:
                done.succeed(packet)

    def _deliver(self, packet: Packet, dst_host: Host, copies: int):
        """Hand ``copies`` arrivals of ``packet`` to the destination port,
        applying dedup + acking for reliable (sequenced) packets."""
        faults = self.faults
        queue = dst_host.port(packet.port)
        for _ in range(copies):
            # What is already due at this very instant runs before the
            # pump goes on, as when it waited for every hand-over
            # (simulated results are pinned to that order).
            wait = self.sim.due_now()
            if packet.seq is not None:
                key = (packet.src, packet.port, packet.seq)
                seen = self._seen_seqs.setdefault(packet.dst, set())
                fresh = key not in seen
                if fresh:
                    seen.add(key)
                # Ack every received copy — a duplicate's ack covers the
                # case where the first ack itself was lost.
                faults.count("acks_sent")
                self.post(Packet(
                    src=packet.dst,
                    dst=packet.src,
                    port="_ack",
                    payload=(packet.src, packet.dst, packet.port,
                             packet.seq),
                    size_bytes=self.costs.ack_bytes,
                ))
                if not fresh:
                    faults.count("duplicates_suppressed")
                    continue
            elif copies > 1 and faults is not None:
                faults.count("duplicates_delivered")
            if wait:
                yield queue.put(packet)
            else:
                queue.push(packet)
            self.delivered += 1
            metrics = self.sim.obs
            if metrics is not None:
                metrics.count("netsim.net.packets")
                metrics.count("netsim.net.bytes", packet.size_bytes)

    def _ack_pump(self, host: Host):
        """Resolve retransmit timers from acks arriving at ``host``."""
        port = host.port("_ack")
        while True:
            ack = pending = None  # park holding no work item
            ack = yield port.get()
            pending = self._awaiting_ack.pop(ack.payload, None)
            if pending is not None and not pending.triggered:
                src, dst, packet_port, _seq = ack.payload
                self._release_credit((src, dst, packet_port))
                pending.succeed()

    def _retransmitter(self, packet: Packet, ack_event):
        """At-least-once delivery: resend ``packet`` with exponential
        backoff + jitter until acked, the endpoint dies, or the retry
        budget runs out (a crashed peer is the recovery layers' problem,
        not the transport's)."""
        faults = self.faults
        costs = self.costs
        backoff = costs.retransmit_backoff
        jitter = costs.retransmit_jitter
        jitter_rng = faults.retransmit_rng
        delay = costs.retransmit_timeout_s
        key = (packet.src, packet.dst, packet.port, packet.seq)
        for _attempt in range(costs.retransmit_max_retries):
            yield ack_event | self.sim.timeout(delay)
            if ack_event.triggered:
                return
            if (packet.deadline_s is not None
                    and self.sim.now >= packet.deadline_s):
                faults.count("retransmits_deadline_expired")
                break
            src_host = self._hosts[packet.src]
            dst_host = self._hosts[packet.dst]
            if src_host.crashed or dst_host.crashed:
                break
            faults.count("retransmits")
            src_host.port("_tx").push((packet, None))
            delay *= backoff
            delay *= 1.0 + jitter * jitter_rng.random()
        else:
            faults.count("retransmits_exhausted")
        self._awaiting_ack.pop(key, None)
        self._release_credit((packet.src, packet.dst, packet.port))
        faults.count("retransmits_abandoned")

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        try:
            return self._hosts[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}") from None

    @property
    def host_names(self) -> list[str]:
        return sorted(self._hosts)

    @property
    def hosts(self) -> list[Host]:
        return [self._hosts[name] for name in self.host_names]

    def __len__(self) -> int:
        return len(self._hosts)

    # -- delivery ------------------------------------------------------------

    def enqueue(self, packet: Packet):
        """Hand ``packet`` to the source host's NIC; returns the event
        that fires once it has been *delivered* at the far end (or
        lost trying).  Enqueueing itself is immediate and FIFO per
        source host.  Callers that never wait use :meth:`post`.
        """
        done = self.sim.event()
        self._enqueue(packet, done)
        return done

    def post(self, packet: Packet) -> None:
        """Fire-and-forget delivery (PVM-style buffered send): as
        :meth:`enqueue`, without an event for anyone to wait on."""
        self._enqueue(packet, None)

    def _enqueue(self, packet: Packet, done) -> None:
        if packet.dst not in self._hosts:
            raise KeyError(f"unknown destination host {packet.dst!r}")
        if packet.src not in self._hosts:
            raise KeyError(f"unknown source host {packet.src!r}")
        src_host = self._hosts[packet.src]
        if src_host.crashed:
            raise HostCrashedError(
                f"cannot send from crashed host {packet.src!r}"
            )
        packet.send_time = self.sim.now
        if (
            self._lossy
            and packet.seq is None
            and not packet.is_local
            and packet.port in self._reliable_ports
        ):
            key = (packet.src, packet.dst, packet.port)
            credits = self._flow_credits
            if credits is not None:
                inflight = self._inflight.get(key, 0)
                if inflight >= credits:
                    self.overloads += 1
                    if self.faults is not None:
                        self.faults.count("overloads")
                    raise SimOverloadError(
                        packet.src, packet.dst, packet.port, credits
                    )
                self._inflight[key] = inflight + 1
            seq = self._next_seq.get(key, 0)
            self._next_seq[key] = seq + 1
            packet.seq = seq
            ack_event = self.sim.event()
            self._awaiting_ack[
                (packet.src, packet.dst, packet.port, seq)
            ] = ack_event
            self.sim.process(
                self._retransmitter(packet, ack_event), daemon=True
            )
        src_host.port("_tx").push((packet, done))

    def send(self, packet: Packet):
        """Process generator: carry ``packet`` and wait for delivery."""
        done = self.enqueue(packet)

        def _send(sim):
            yield done
            return packet

        return _send(self.sim)

    def __repr__(self) -> str:
        return f"<Network hosts={len(self._hosts)} delivered={self.delivered}>"


def build_lan(
    sim: Simulator,
    n_hosts: int,
    costs: CostModel = DEFAULT_COSTS,
    cpu_scale: float = 1.0,
) -> Network:
    """Build the paper's platform: ``n_hosts`` workstations on one LAN."""
    if n_hosts < 1:
        raise ValueError(f"need at least one host, got {n_hosts}")
    network = Network(sim, costs)
    for index in range(n_hosts):
        network.add_host(
            Host(sim, f"host{index}", costs, cpu_scale=cpu_scale)
        )
    return network
