"""Apply a :class:`~repro.faults.plan.FaultPlan` to a live network.

The injector is the bridge between the *description* of faults and the
machinery that suffers them:

* timed events (crash/restart/partition/heal/hang) are replayed by a
  daemon process at their scheduled virtual times;
* per-packet decisions (drop/duplicate/corrupt) are sampled on demand by
  :meth:`FaultInjector.packet_action`, which the transmit pump in
  :class:`~repro.netsim.transport.Network` consults for every non-local
  packet — but only when the plan can actually perturb the wire, so an
  attached zero-fault plan stays off the hot path;
* every fault and recovery action is double-counted: into the plain
  ``counts`` dict (always, so ``repro chaos`` can report statistics
  without a metrics registry) and into the ``faults.*`` metric family +
  trace instants when a :class:`~repro.obs.MetricsRegistry` is attached.

Randomness comes exclusively from named
:class:`~repro.des.rng.RngRegistry` streams (``faults.drop``,
``faults.duplicate``, ``faults.corrupt``, ``faults.retransmit``), so a
(seed, plan) pair replays bit-identically — the property the
determinism tests in ``tests/test_faults.py`` pin down.
"""

from __future__ import annotations

from ..des.rng import RngRegistry
from .plan import CRASH, FaultPlan, HANG, HEAL, PARTITION, RESTART

__all__ = ["FaultInjector"]

#: Trace track used for fault/recovery instants in the Chrome trace.
TRACK = "faults"


class FaultInjector:
    """Wires a :class:`FaultPlan` into a ``netsim`` Network.

    Construction attaches immediately: the network's transmit pumps
    start consulting :meth:`packet_action`, reliable ports arm their
    ack/retransmit machinery (if the plan is lossy), and a scheduler
    process is started for the plan's timed events.
    """

    def __init__(self, network, plan: FaultPlan, rng=None, seed: int = 0):
        self.network = network
        self.sim = network.sim
        self.plan = plan.validate(network.host_names)
        self.rng = rng if rng is not None else RngRegistry(seed)
        #: Host-name pairs currently partitioned (order-insensitive).
        self.partitions: set[frozenset] = set()
        #: Plain counters, always maintained (metrics or not).
        self.counts: dict[str, int] = {}

        # Pre-resolve the sampling streams and fast-path flags once.
        self._drop_rng = self.rng.stream("faults.drop")
        self._dup_rng = self.rng.stream("faults.duplicate")
        self._corrupt_rng = self.rng.stream("faults.corrupt")
        self.retransmit_rng = self.rng.stream("faults.retransmit")
        #: True when per-packet sampling can ever change an outcome.
        self.perturbs = plan.lossy
        #: True when checkpoint/recovery machinery must be armed.
        self.can_crash = plan.can_crash

        network.attach_faults(self)
        if plan.events:
            self.sim.process(self._scheduler(), daemon=True)

    # -- accounting --------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Bump fault counter ``name`` (dict always, metrics if present)."""
        self.counts[name] = self.counts.get(name, 0) + n
        metrics = self.sim.obs
        if metrics is not None:
            metrics.count(f"faults.{name}", n)

    def _instant(self, name: str, args=None) -> None:
        metrics = self.sim.obs
        if metrics is not None:
            metrics.instant(TRACK, name, self.sim.now, args)

    # -- timed events ------------------------------------------------------

    def _scheduler(self):
        """Daemon process replaying the plan's timed events in order."""
        for event in self.plan.sorted_events():
            if event.at > self.sim.now:
                yield self.sim.timeout(event.at - self.sim.now)
            self._apply(event)

    def _apply(self, event) -> None:
        if event.kind == CRASH:
            self.count("host_crashes")
            self._instant("crash", {"host": event.host})
            self.network.crash_host(event.host)
        elif event.kind == RESTART:
            self.count("host_restarts")
            self._instant("restart", {"host": event.host})
            self.network.restart_host(event.host)
        elif event.kind == PARTITION:
            self.count("partitions")
            self._instant(
                "partition", {"a": event.host, "b": event.peer}
            )
            self.partitions.add(frozenset((event.host, event.peer)))
        elif event.kind == HEAL:
            self.count("heals")
            self._instant("heal", {"a": event.host, "b": event.peer})
            self.partitions.discard(frozenset((event.host, event.peer)))
            self.network.notify_heal(event.host, event.peer)
        elif event.kind == HANG:
            self.count("hangs")
            self._instant(
                "hang", {"host": event.host, "duration": event.duration}
            )
            # Seize the host's CPU: everything queued behind us waits.
            # A bare hold — a hang is not work (no busy_seconds, no span).
            self.network.host(event.host).cpu.hold(event.duration)

    # -- per-packet decisions ----------------------------------------------

    def partitioned(self, a: str, b: str) -> bool:
        return (
            bool(self.partitions)
            and frozenset((a, b)) in self.partitions
        )

    def packet_action(self, packet) -> str:
        """Decide one packet's fate: ``deliver``, ``drop``, ``corrupt``,
        ``duplicate``, or ``partitioned``.

        Called by the transmit pump for every non-local packet while
        ``perturbs`` is true.  Sampling order (drop, then corrupt, then
        duplicate) is fixed so runs replay identically.
        """
        src, dst = packet.src, packet.dst
        if self.partitioned(src, dst):
            self.count("packets_partitioned")
            return "partitioned"
        plan = self.plan
        rate = plan.drop_rate(src, dst)
        if rate and self._drop_rng.random() < rate:
            self.count("packets_dropped")
            self._instant(
                "drop", {"src": src, "dst": dst, "port": packet.port}
            )
            return "drop"
        rate = plan.corrupt_rate(src, dst)
        if rate and self._corrupt_rng.random() < rate:
            self.count("packets_corrupted")
            self._instant(
                "corrupt", {"src": src, "dst": dst, "port": packet.port}
            )
            return "corrupt"
        rate = plan.duplicate_rate(src, dst)
        if rate and self._dup_rng.random() < rate:
            self.count("packets_duplicated")
            return "duplicate"
        return "deliver"

    def __repr__(self) -> str:
        return (
            f"<FaultInjector plan={self.plan!r} "
            f"counts={dict(sorted(self.counts.items()))}>"
        )
