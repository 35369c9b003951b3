"""The MESSENGERS system facade.

One :class:`MessengersSystem` spans the simulated cluster: it owns the
daemons (one per host), the logical network, the native-function
registry, the global-virtual-time engine, and the injection interface
("arbitrary new Messengers may also be injected by the user from the
outside (the command shell) at runtime", §1).
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Sequence, Union

from ..des import SimulationError, Simulator
from ..netsim import CostModel, Network, Packet
from ..obs import InstantEvent
from .daemon import Daemon
from .daemon_graph import DaemonNetwork
from .logical import LogicalNetwork
from .mcl.bytecode import Program
from .mcl.compiler import LruCache, compile_source
from .messenger import Messenger
from .natives import NativeRegistry
from .vtime import ConservativeVirtualTime

__all__ = ["MessengersSystem"]


class _Checkpoint:
    """Snapshot of a Messenger as dispatched over the wire.

    Taken at hop boundaries (only when the attached fault plan can crash
    hosts): ``clone`` is a full replica of the migrating state, ``holder``
    the daemon that sent it.  ``prev`` optionally keeps the *previous*
    dispatch snapshot until delivery of this one is confirmed, so a
    Messenger lost together with its sender's transmit queue can still be
    replayed from one hop earlier.  The chain never grows beyond two.
    """

    __slots__ = ("clone", "holder", "kind", "node", "item", "origin",
                 "dest", "prev", "in_flight")

    def __init__(self, clone, holder, kind, node, item, origin, dest):
        self.clone = clone
        self.holder = holder
        self.kind = kind  # "hop" | "create"
        self.node = node  # hop: destination LogicalNode (already placed)
        self.item = item  # create: the CreateItem to materialize
        self.origin = origin  # create: the originating LogicalNode
        self.dest = dest  # create: destination daemon name
        self.prev = None
        #: True from dispatch until delivery: the holder still owns the
        #: retransmit responsibility, so a crash of the holder while
        #: this is set strands the Messenger unless recovery replays it.
        self.in_flight = True


class MessengersSystem:
    """Daemons + logical network + virtual time over a simulated LAN."""

    def __init__(
        self,
        network: Network,
        daemon_graph: Optional[DaemonNetwork] = None,
        natives: Optional[NativeRegistry] = None,
    ):
        self.network = network
        self.sim: Simulator = network.sim
        self.costs: CostModel = network.costs
        self.logical = LogicalNetwork()
        self.natives = natives or NativeRegistry()
        self.daemon_graph = daemon_graph or DaemonNetwork.complete(
            network.host_names
        )
        for name in self.daemon_graph.daemons:
            if name not in network.host_names:
                raise KeyError(
                    f"daemon graph references unknown host {name!r}"
                )

        self.daemons: dict[str, Daemon] = {}
        for host in network.hosts:
            daemon = Daemon(self, host)
            # "At system startup, a single logical node, named init, is
            # created on every daemon node" (§2.1).
            daemon.init_node = self.logical.create_node("init", host.name)
            self.daemons[host.name] = daemon

        self.vtime = ConservativeVirtualTime(self)
        #: Number of Messengers currently able to make progress
        #: (ready, executing, or in transit).  Zero = quiescent.
        self.active_count = 0
        #: All Messengers ever admitted, by id.
        self.messengers: dict[int, Messenger] = {}
        #: Messengers that finished (or were lost) with their fates.
        self.finished: list[tuple[Messenger, str]] = []
        #: Keep finished Messengers in :attr:`messengers` /
        #: :attr:`finished` for forensics (the default).  Scale
        #: workloads with millions of short-lived Messengers set this
        #: False: a finished Messenger is not archived, so memory stays
        #: proportional to the *live* population.
        self.retain_finished = True
        self.log_lines: list[str] = []
        #: Script/native errors caught by daemons (the daemons survive;
        #: :meth:`run_to_quiescence` re-raises the first one).
        self.script_errors: list[Exception] = []
        #: Optional :class:`~repro.messengers.trace.Tracer`.
        self.tracer = None
        #: Optional :class:`~repro.mailbox.MailboxService` — set by the
        #: service itself so churn events reach the durable mail layer.
        self.mailboxes = None
        self._placement_rotation: dict[str, itertools.cycle] = {}
        self._program_cache = LruCache(capacity=256)
        #: Hop-boundary checkpoints by messenger id (crash recovery).
        self._checkpoints: dict[int, _Checkpoint] = {}
        #: Crash victims awaiting the failure announcement, per host.
        self._crash_victims: dict[str, dict[int, Messenger]] = {}
        # Daemon traffic opts into at-least-once + dedup delivery (free
        # until a lossy fault plan is attached), and the system repairs
        # the logical network + re-dispatches lost Messengers once a
        # crash is *known* (immediately in oracle mode, at detection
        # time when a failure detector is attached).
        network.set_reliable(Daemon.port_name)
        network.add_crash_listener(self._on_host_crash)
        network.add_failure_listener(self._on_host_failure)
        network.add_restart_listener(self._on_host_restart)

    def trace(self, messenger, kind: str, daemon: str, detail: str = ""):
        """Record a trace event if anyone is listening (hot path).

        One :class:`~repro.obs.InstantEvent` is built and fanned out to
        both consumers: the attached :class:`~repro.messengers.trace.Tracer`
        (which renders it as a ``TraceEvent``) and the simulator's
        metrics registry (which exports it to Chrome traces / JSONL).
        """
        tracer = self.tracer
        metrics = self.sim.obs
        if tracer is None and metrics is None:
            return
        event = InstantEvent(
            track=daemon,
            name=kind,
            t=self.sim.now,
            args={
                "messenger": messenger.id,
                "program": messenger.program.name,
                "vt": messenger.vt,
                "node": (
                    messenger.node.display_name if messenger.node else "-"
                ),
                "detail": detail,
            },
        )
        if tracer is not None:
            tracer.consume(event)
        if metrics is not None:
            metrics.record_instant(event)

    # -- compilation -------------------------------------------------------

    def compile(
        self, source: str, function: Optional[str] = None
    ) -> Program:
        """Compile (and cache) an MCL source function.

        The per-system cache is a bounded LRU; its cumulative hit/miss
        counters are exported through the obs registry as the
        ``mcl_cache_hits`` / ``mcl_cache_misses`` gauges.  Gauges are
        pure observability — they never feed back into the simulation,
        so instrumented and plain runs stay bit-identical.
        """
        cache = self._program_cache
        key = (source, function)
        program = cache.get(key)
        if program is None:
            program = compile_source(source, function)
            cache.put(key, program)
        metrics = self.sim.obs
        if metrics is not None:
            metrics.gauge("mcl_cache_hits").set(cache.hits)
            metrics.gauge("mcl_cache_misses").set(cache.misses)
        return program

    # -- injection -----------------------------------------------------------

    def inject(
        self,
        script: Union[str, Program],
        args: Sequence[Any] = (),
        daemon: Optional[str] = None,
        node: str = "init",
        function: Optional[str] = None,
        vt: float = 0.0,
    ) -> Messenger:
        """Inject a new Messenger at a daemon's node (default ``init``).

        ``script`` is MCL source text or a pre-compiled
        :class:`Program`; ``args`` bind to the script's parameters in
        order and become messenger variables.
        """
        program = (
            script
            if isinstance(script, Program)
            else self.compile(script, function)
        )
        if len(args) != len(program.params):
            raise TypeError(
                f"{program.name} expects {len(program.params)} arguments "
                f"({', '.join(program.params)}); got {len(args)}"
            )
        daemon_name = daemon if daemon is not None else self.daemon_names[0]
        try:
            target_daemon = self.daemons[daemon_name]
        except KeyError:
            raise KeyError(f"unknown daemon {daemon_name!r}") from None
        if target_daemon.retired:
            raise ValueError(
                f"daemon {daemon_name!r} has left the cluster"
            )

        candidates = self.logical.resolve(node, daemon_name)
        if not candidates:
            raise KeyError(
                f"no node matching {node!r} on daemon {daemon_name!r}"
            )
        start_node = candidates[0]

        messenger = Messenger(
            program, dict(zip(program.params, args)), vt=vt
        )
        messenger.node = start_node
        self.messengers[messenger.id] = messenger
        self.activate(messenger)
        target_daemon.enqueue_ready(messenger)
        return messenger

    @property
    def daemon_names(self) -> list[str]:
        return list(self.daemons)

    def daemon(self, name: str) -> Daemon:
        return self.daemons[name]

    # -- execution driving ----------------------------------------------------------

    def run(self, until: Any = None) -> Any:
        """Drive the simulation (delegates to the simulator)."""
        return self.sim.run(until=until)

    def run_to_quiescence(self) -> float:
        """Run until no Messenger can make progress; returns sim.now.

        This drains the whole event queue: all ready Messengers, all
        in-flight hops, and every pending virtual-time wake-up.  If any
        Messenger crashed along the way (script error, native raising),
        the daemons kept running but the first recorded error is
        re-raised here — errors never pass silently.
        """
        self.sim.run()
        if self.script_errors:
            errors, self.script_errors = self.script_errors, []
            raise errors[0]
        if self.active_count > 0:
            stranded = [
                m.id
                for m in self.messengers.values()
                if m.alive and not m.suspended
            ]
            # Packets given up because the retries ran out, as opposed
            # to ones abandoned at a crashed endpoint or a deadline.
            faults = self.network.faults
            exhausted = (
                faults.counts.get("retransmits_exhausted", 0)
                if faults is not None
                else 0
            )
            if exhausted:
                cause = (
                    f"the reliable transport abandoned {exhausted} "
                    "packet(s) after the retry budget "
                    f"(CostModel.retransmit_max_retries="
                    f"{self.network.costs.retransmit_max_retries}) ran "
                    "out, losing the Messengers they carried"
                )
            else:
                cause = (
                    "a host crash without a crash-capable FaultPlan "
                    "attached loses in-flight Messengers irrecoverably"
                )
            raise SimulationError(
                f"event queue drained with {self.active_count} Messengers "
                f"still accounted active (stranded ids: {stranded}) — "
                f"{cause}"
            )
        return self.sim.now

    # -- bookkeeping used by daemons -----------------------------------------------------

    def activate(self, messenger: Optional[Messenger] = None) -> None:
        """Count a Messenger as able to make progress.

        With a ``messenger`` the transition is tracked per Messenger and
        is idempotent — crash recovery and the daemons may race to
        account for the same victim.
        """
        if messenger is not None:
            if messenger.active:
                return
            messenger.active = True
        self.active_count += 1

    def deactivate(self, messenger: Optional[Messenger] = None) -> None:
        if messenger is not None:
            if not messenger.active:
                return
            messenger.active = False
        if self.active_count <= 0:
            raise RuntimeError("active count underflow")
        self.active_count -= 1
        if self.active_count == 0:
            self.vtime.on_quiescent()

    def register_replica(self, replica: Messenger) -> None:
        """Admit a clone produced by hop replication / create(ALL)."""
        self.messengers[replica.id] = replica
        self.activate(replica)

    def messenger_done(self, messenger: Messenger, lost: bool = False):
        """A Messenger terminated (script finished or no hop match)."""
        messenger.kill()
        self._checkpoints.pop(messenger.id, None)
        if self.retain_finished:
            self.finished.append((messenger, "lost" if lost else "done"))
        else:
            self.messengers.pop(messenger.id, None)
        metrics = self.sim.obs
        if metrics is not None:
            metrics.count(
                "messengers.lost" if lost else "messengers.finished"
            )
        self.deactivate(messenger)

    def messenger_failed(self, messenger: Messenger) -> None:
        """A Messenger crashed with a script error (kept for forensics)."""
        messenger.kill()
        self._checkpoints.pop(messenger.id, None)
        self.finished.append((messenger, "failed"))
        metrics = self.sim.obs
        if metrics is not None:
            metrics.count("messengers.failed")
        self.deactivate(messenger)

    # -- crash recovery -------------------------------------------------------

    @property
    def _checkpointing(self) -> bool:
        """Hop-boundary checkpoints are armed only when the attached
        fault plan can actually crash a host — fault-free runs (and
        loss-only plans) pay nothing."""
        faults = self.network.faults
        return faults is not None and faults.can_crash

    def checkpoint_dispatch(
        self,
        messenger: Messenger,
        holder: str,
        kind: str = "hop",
        item=None,
        origin=None,
        dest: Optional[str] = None,
    ) -> None:
        """Snapshot ``messenger`` as it leaves ``holder`` over the wire.

        Called by daemons right after a remote dispatch.  The previous
        snapshot (if any) is retained as ``prev`` until this dispatch is
        confirmed delivered, so a crash of the *sender* — losing the
        transmit queue — can still replay from one hop earlier.
        """
        if not self._checkpointing:
            return
        checkpoint = _Checkpoint(
            messenger.clone(), holder, kind, messenger.node, item, origin,
            dest,
        )
        previous = self._checkpoints.get(messenger.id)
        if previous is not None:
            previous.prev = None  # cap the chain at two snapshots
            checkpoint.prev = previous
        self._checkpoints[messenger.id] = checkpoint
        self.network.faults.count("checkpoints")

    def checkpoint_delivered(self, messenger: Messenger) -> None:
        """The dispatch covered by the newest snapshot arrived: the
        previous snapshot can no longer be needed."""
        checkpoint = self._checkpoints.get(messenger.id)
        if checkpoint is not None:
            checkpoint.prev = None
            checkpoint.in_flight = False

    def _collect_victims(
        self, name: str, lost_packets, victims: dict
    ) -> None:
        """Gather crash casualties of daemon ``name`` into ``victims``.

        Victims are (a) alive Messengers whose current logical node lives
        on the dead daemon (resident, ready, executing, suspended, or
        already placed in flight toward it), (b) Messengers riding in the
        dead host's lost transmit/receive queues, (c) in-flight create
        requests addressed to the dead daemon, and (d) undelivered
        dispatches *held* by the dead daemon — the sender owned the
        retransmit responsibility (e.g. the packet was dropped by the
        loss fault and was awaiting retransmission from the dead host's
        transport), so nobody else will ever re-send them.
        """
        for messenger in self.messengers.values():
            if (
                messenger.alive
                and messenger.node is not None
                and messenger.node.daemon == name
            ):
                victims[messenger.id] = messenger
        for packet in lost_packets:
            if packet.port != Daemon.port_name:
                continue
            kind, data = packet.payload
            messenger = data if kind == "messenger" else data[0]
            if messenger.alive:
                victims[messenger.id] = messenger
        for mid, checkpoint in self._checkpoints.items():
            messenger = self.messengers.get(mid)
            if messenger is None or not messenger.alive:
                continue
            if (
                messenger.node is None
                and checkpoint.kind == "create"
                and checkpoint.dest == name
            ):
                victims[messenger.id] = messenger
            elif checkpoint.in_flight and checkpoint.holder == name:
                victims[messenger.id] = messenger

    def _kill_victims(self, name: str, victims: dict, faults) -> None:
        for messenger in victims.values():
            messenger.kill()
            messenger.suspended = False
            self.finished.append((messenger, "crashed"))
            self.trace(messenger, "crashed", name)
            if faults is not None:
                faults.count("messengers_crashed")
            self.deactivate(messenger)

    def _on_host_crash(self, host, lost_packets) -> None:
        """Physical phase of a crash: victims die, nothing else happens.

        A dead CPU executes nothing, so everything resident on (or in
        flight into) the dead daemon dies *now* — but recovery is
        knowledge, and nobody has it yet: repair and re-dispatch wait
        for :meth:`_on_host_failure` (which follows immediately in
        oracle mode and at detection time when a failure detector
        drives the announcement).
        """
        name = host.name
        daemon = self.daemons.get(name)
        if daemon is None:
            return
        daemon.dead = True
        faults = self.network.faults
        victims: dict[int, Messenger] = {}
        self._collect_victims(name, lost_packets, victims)
        self._kill_victims(name, victims, faults)
        self._crash_victims[name] = victims

    def _on_host_failure(self, host) -> None:
        """Knowledge phase of a crash: repair the net, replay victims.

        Between the crash and its announcement more Messengers may have
        hopped toward the dead daemon (their packets died at the NIC of
        a sender that did not know better), so casualties are collected
        a second time here.  Then the dead daemon's logical nodes are
        re-homed round-robin onto the survivors, and every victim with a
        checkpoint held by a live daemon is replayed from its last hop
        boundary.
        """
        name = host.name
        daemon = self.daemons.get(name)
        if daemon is None:
            return
        faults = self.network.faults
        victims = self._crash_victims.pop(name, {})
        late: dict[int, Messenger] = {}
        self._collect_victims(name, (), late)
        for mid in victims:
            late.pop(mid, None)
        self._kill_victims(name, late, faults)
        victims.update(late)

        # Logical-network repair: re-home the dead daemon's nodes onto
        # the survivors so existing links keep routing (§2.1's logical
        # network stays intact while the physical node is gone).
        alive = [
            d
            for d in self.daemon_names
            if not self.daemons[d].dead and not self.daemons[d].retired
        ]
        if alive:
            dead_nodes = self.logical.nodes_on(name)
            for index, node in enumerate(dead_nodes):
                self.logical.rehome(node, alive[index % len(alive)])
            if faults is not None and dead_nodes:
                faults.count("nodes_rehomed", len(dead_nodes))

        for messenger in victims.values():
            self._redispatch(messenger, faults)

    def _redispatch(self, messenger: Messenger, faults) -> None:
        """Replay a crash victim from its newest usable checkpoint."""
        checkpoint = self._checkpoints.pop(messenger.id, None)
        while checkpoint is not None:
            holder = self.daemons.get(checkpoint.holder)
            if holder is not None and not holder.dead:
                break
            checkpoint = checkpoint.prev
        if checkpoint is None:
            if faults is not None:
                faults.count("messengers_unrecoverable")
            return

        clone = checkpoint.clone
        if checkpoint.kind == "hop":
            node = checkpoint.node
            dest = node.daemon  # post-repair owner
            if self.daemons[dest].dead:
                if faults is not None:
                    faults.count("messengers_unrecoverable")
                return
            clone.node = node
            self.register_replica(clone)
            self.checkpoint_dispatch(clone, checkpoint.holder, kind="hop")
            if faults is not None:
                faults.count("messengers_redispatched")
            self.trace(clone, "redispatch", checkpoint.holder, f"-> {dest}")
            if dest == checkpoint.holder:
                self.daemons[dest].enqueue_ready(clone)
            else:
                self.network.post(Packet(
                    src=checkpoint.holder,
                    dst=dest,
                    port=Daemon.port_name,
                    payload=("messenger", clone),
                    size_bytes=clone.state_bytes(),
                ))
        else:  # create request: re-route to any matching live daemon
            item, origin = checkpoint.item, checkpoint.origin
            candidates = [
                c
                for c in self.daemon_graph.matches(
                    checkpoint.holder, item.dn, item.dl, item.ddir
                )
                if not self.daemons[c].dead and not self.daemons[c].retired
            ]
            if not candidates:
                if faults is not None:
                    faults.count("messengers_unrecoverable")
                return
            dest = self.choose_daemon(checkpoint.holder, candidates)
            self.register_replica(clone)
            self.checkpoint_dispatch(
                clone, checkpoint.holder, kind="create",
                item=item, origin=origin, dest=dest,
            )
            if faults is not None:
                faults.count("messengers_redispatched")
            self.trace(clone, "redispatch", checkpoint.holder, f"-> {dest}")
            if dest == checkpoint.holder:
                self.daemons[dest]._create_local(clone, item, origin)
                self.daemons[dest].enqueue_ready(clone)
            else:
                self.network.post(Packet(
                    src=checkpoint.holder,
                    dst=dest,
                    port=Daemon.port_name,
                    payload=("create", (clone, item, origin)),
                    size_bytes=clone.state_bytes() + 64,
                ))

    def _on_host_restart(self, host) -> None:
        """A crashed host came back: revive its daemon.

        Its logical nodes were re-homed at crash time and stay where
        they are; the daemon gets a fresh ``init`` anchor so new
        injections and creates can land on it again.
        """
        daemon = self.daemons.get(host.name)
        if daemon is None or not daemon.dead:
            return
        daemon.dead = False
        if (
            daemon.init_node is None
            or daemon.init_node.daemon != host.name
        ):
            daemon.init_node = self.logical.create_node("init", host.name)
        faults = self.network.faults
        if faults is not None:
            faults.count("daemon_restarts")

    # -- host churn (graceful join / leave) ------------------------------------

    def add_daemon(self, host) -> Daemon:
        """Admit ``host`` as a new daemon mid-run (churn: join).

        The host must already be attached to the network
        (:meth:`~repro.netsim.Network.add_host`).  Following the LAN
        rule the joiner is linked to every current daemon, gets its own
        ``init`` anchor, and immediately becomes a placement candidate.
        Re-admitting a previously retired daemon revives it in place.
        """
        name = host.name
        daemon = self.daemons.get(name)
        if daemon is not None and not daemon.retired:
            raise ValueError(f"daemon {name!r} is already running")
        peers = [
            d for d in self.daemon_graph.daemons
            if not self.daemons[d].retired
        ]
        self.daemon_graph.add_daemon(name)
        for other in peers:
            self.daemon_graph.add_link(name, other)
        if daemon is None:
            daemon = Daemon(self, host)
            self.daemons[name] = daemon
        else:
            daemon.retired = False
        if daemon.init_node is None or daemon.init_node.daemon != name:
            daemon.init_node = self.logical.create_node("init", name)
        self._placement_rotation.clear()
        faults = self.network.faults
        if faults is not None:
            faults.count("daemons_joined")
        if self.mailboxes is not None:
            self.mailboxes.on_daemon_joined(name)
        return daemon

    def retire_daemon(self, name: str) -> None:
        """Gracefully remove daemon ``name`` mid-run (churn: leave).

        Unlike a crash nothing is lost: the leaving daemon's logical
        nodes are re-homed round-robin onto the survivors, its ready
        Messengers migrate with their nodes, and the daemon itself
        stays behind as a forwarder — late arrivals (packets already in
        flight toward it) are re-routed to their nodes' new homes by
        the retired arrival pump.  Mid-slice Messengers finish their
        burst and hop out normally; a ``create`` issued from the
        retired daemon matches nothing (its graph entry is a tombstone)
        and is recorded lost, like any unmatched navigation.
        """
        daemon = self.daemons.get(name)
        if daemon is None:
            raise KeyError(f"unknown daemon {name!r}")
        if daemon.dead:
            raise ValueError(f"daemon {name!r} is crashed, not retirable")
        if daemon.retired:
            return
        survivors = [
            d
            for d in self.daemon_names
            if d != name
            and not self.daemons[d].dead
            and not self.daemons[d].retired
        ]
        if not survivors:
            raise ValueError(
                f"cannot retire {name!r}: no live daemon would remain"
            )
        faults = self.network.faults

        # Re-home every resident node, then carry its ready Messengers
        # over — after this no *new* traffic targets the leaver, and the
        # retired pump forwards whatever was already on the wire.
        moved_nodes = self.logical.nodes_on(name)
        for index, node in enumerate(moved_nodes):
            self.logical.rehome(node, survivors[index % len(survivors)])
        daemon.retired = True
        self.daemon_graph.remove_daemon(name)
        self._placement_rotation.clear()
        migrated = 0
        for messenger in daemon.ready.clear():
            if not messenger.alive:
                continue
            target = (
                messenger.node.daemon
                if messenger.node is not None
                else survivors[0]
            )
            self.trace(messenger, "migrate", name, f"-> {target}")
            self.daemons[target].enqueue_ready(messenger)
            migrated += 1
        if faults is not None:
            faults.count("daemons_retired")
            if moved_nodes:
                faults.count("nodes_rehomed", len(moved_nodes))
            if migrated:
                faults.count("messengers_migrated", migrated)
        if self.mailboxes is not None:
            self.mailboxes.on_daemon_retired(name)

    def choose_daemon(self, from_daemon: str, candidates: list) -> str:
        """Placement rule for non-ALL create: rotate over candidates.

        The paper defers its placement rules to [FBDM98]; deterministic
        rotation reproduces the load-spreading behaviour.
        """
        if len(candidates) == 1:
            return candidates[0]
        if from_daemon not in self._placement_rotation:
            neighbors = sorted(self.daemon_graph.neighbors(from_daemon))
            self._placement_rotation[from_daemon] = (
                itertools.cycle(neighbors) if neighbors else None
            )
        rotation = self._placement_rotation[from_daemon]
        if rotation is not None:
            for _ in range(len(self.daemon_graph)):
                choice = next(rotation)
                if choice in candidates:
                    return choice
        return candidates[0]

    # -- network variables ------------------------------------------------------------------

    def netvar(self, daemon: Daemon, messenger: Messenger, name: str):
        """Resolve a ``$``-prefixed network variable (§2.1)."""
        if name == "address":
            return daemon.name
        if name == "last":
            return messenger.last_link if messenger.last_link else "*"
        if name == "node":
            return messenger.node.display_name
        if name == "time":
            return messenger.vt
        if name == "gvt":
            return self.vtime.gvt
        if name == "degree":
            return messenger.node.degree()
        raise KeyError(f"unknown network variable ${name}")

    # -- diagnostics -----------------------------------------------------------------------------

    def log(self, line: str) -> None:
        self.log_lines.append(line)

    @property
    def alive_messengers(self) -> list[Messenger]:
        return [m for m in self.messengers.values() if m.alive]

    def total_instructions(self) -> int:
        return sum(d.stats.instructions for d in self.daemons.values())

    def total_hops(self) -> tuple[int, int]:
        """(local, remote) hop counts over all daemons."""
        local = sum(d.stats.hops_out_local for d in self.daemons.values())
        remote = sum(d.stats.hops_out_remote for d in self.daemons.values())
        return local, remote

    def __repr__(self) -> str:
        return (
            f"<MessengersSystem daemons={len(self.daemons)} "
            f"active={self.active_count} "
            f"nodes={self.logical.node_count()}>"
        )
