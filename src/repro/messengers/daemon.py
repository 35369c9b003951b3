"""The MESSENGERS daemon: interpreter + dispatcher on one host.

"A daemon's task is to continuously receive Messengers arriving from
other daemons, interpret their behaviors … and send them on to their
next destinations as dictated by their behaviors" (§2.1).

Cost accounting at a glance (all constants in
:mod:`repro.netsim.costs`):

==========================  =================================================
interpretation              ``interp_instr_s`` × bytecode instructions
native-mode function        ``native_call_s`` + whatever the native charges
hop dispatch                ``hop_dispatch_s`` per arriving/relocated Messenger
remote hop                  messenger state bytes over the shared Ethernet
local hop                   ``msgr_state_local_per_byte_s`` × state bytes
node/link creation          ``logical_create_s`` each
==========================  =================================================

Crucially there is **no pack/unpack copy** on hops — messenger variables
migrate as-is (§2.1's zero-copy argument against message passing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..des import Store
from ..netsim import Host, HostCrashedError, Packet
from .logical import LogicalNode
from .mcl.bytecode import (
    CreateCommand,
    DeleteCommand,
    DoneCommand,
    HopCommand,
    SchedCommand,
)
from .mcl import closures
from .mcl.vm import OPCODE_NAMES
from .messenger import Messenger
from .natives import NativeEnv

__all__ = ["Daemon", "DaemonStats"]

#: The MCL entry point every new :class:`Daemon` runs slices through,
#: read once per daemon.  Tests swap in :func:`repro.messengers.mcl.vm.run`
#: (the reference interpreter, same signature and Command contract) to
#: prove the two bit-identical.
VM_RUN = closures.run


@dataclass
class DaemonStats:
    """Lifetime counters for one daemon."""

    executed_slices: int = 0
    instructions: int = 0
    native_calls: int = 0
    hops_out_local: int = 0
    hops_out_remote: int = 0
    arrivals: int = 0
    forwarded: int = 0  # arrivals re-routed away by a retired daemon
    messengers_finished: int = 0
    messengers_lost: int = 0  # hop matched no destination
    nodes_created: int = 0
    links_created: int = 0
    links_deleted: int = 0


class Daemon:
    """One daemon process pair (arrival pump + interpreter loop)."""

    port_name = "messengers"

    def __init__(self, system, host: Host):
        self.system = system
        self.host = host
        self.sim = system.sim
        self._vm_run = VM_RUN
        self.ready: Store = Store(self.sim)
        self.stats = DaemonStats()
        #: Set by the system's crash listener while this daemon's host is
        #: down; cleared on restart.  A dead daemon neither receives nor
        #: dispatches Messengers.
        self.dead = False
        #: Set by :meth:`MessengersSystem.retire_daemon` (graceful host
        #: leave).  The host stays physically alive so late arrivals can
        #: still land here, but the daemon only *forwards* them to their
        #: nodes' new homes — it never executes anything again.
        self.retired = False
        #: The permanent ``init`` node anchored on this daemon (§2.1).
        self.init_node: Optional[LogicalNode] = None
        self.sim.process(self._arrival_pump(), daemon=True)
        self.sim.process(self._interpreter_loop(), daemon=True)

    @property
    def name(self) -> str:
        return self.host.name

    # -- queue interfaces ------------------------------------------------------

    def enqueue_ready(self, messenger: Messenger) -> None:
        """Make a Messenger runnable on this daemon (no cost charged)."""
        self.ready.push(messenger)

    # -- processes ----------------------------------------------------------------

    def _arrival_pump(self):
        """Receive Messengers (and create requests) from other daemons."""
        port = self.host.port(self.port_name)
        costs = self.system.costs
        while True:
            # Park holding no work item (a Messenger carries its blocks).
            packet = data = messenger = item = origin_node = None
            packet = yield port.get()
            kind, data = packet.payload
            metrics = self.sim.obs
            if self.retired:
                try:
                    yield from self._forward(packet, kind, data, costs)
                except HostCrashedError:
                    pass
                continue
            if kind == "messenger":
                messenger = data
                try:
                    yield self.host.busy(
                        costs.hop_dispatch_s,
                        category="dispatch",
                        label="hop.dispatch",
                    )
                except HostCrashedError:
                    # The crash landed while the dispatch was queued on
                    # the CPU: the work item dies with the host (crash
                    # recovery collects it as a victim); the pump parks
                    # again and resumes after a restart.
                    continue
                self.stats.arrivals += 1
                if metrics is not None:
                    metrics.count("messengers.arrivals")
                if not messenger.alive:
                    # Killed in transit by crash recovery and already
                    # re-dispatched elsewhere; drop the stale copy.
                    continue
                self.system.checkpoint_delivered(messenger)
                self.system.trace(messenger, "arrive", self.name)
                self.enqueue_ready(messenger)
            elif kind == "create":
                messenger, item, origin_node = data
                try:
                    yield self.host.busy(
                        costs.hop_dispatch_s,
                        category="dispatch",
                        label="hop.dispatch",
                    )
                except HostCrashedError:
                    continue
                self.stats.arrivals += 1
                if metrics is not None:
                    metrics.count("messengers.arrivals")
                if not messenger.alive:
                    continue
                self.system.checkpoint_delivered(messenger)
                self._create_local(messenger, item, origin_node)
                # creation cost itself
                try:
                    yield self.host.busy(
                        2 * costs.logical_create_s,
                        category="dispatch",
                        label="logical.create",
                    )
                except HostCrashedError:
                    continue
                self.enqueue_ready(messenger)
            else:  # pragma: no cover - internal protocol
                raise RuntimeError(f"bad daemon packet kind {kind!r}")

    def _forward(self, packet: Packet, kind, data, costs):
        """A retired daemon re-routes late arrivals instead of executing.

        A "messenger" packet chases its node's new home (retirement
        re-homed every resident node before the graph tombstone went
        in); a "create" request is re-aimed at the first live daemon in
        graph order — deterministic, and acceptable as a placement
        change under churn.  With no live daemon left the Messenger is
        recorded lost, exactly like a hop that matches nothing.
        """
        messenger = data if kind == "messenger" else data[0]
        if not messenger.alive:
            return
        if kind == "messenger":
            target = messenger.node.daemon
        else:
            target = next(
                (
                    name
                    for name in self.system.daemon_graph.daemons
                    if not self.system.daemons[name].dead
                    and not self.system.daemons[name].retired
                ),
                None,
            )
        if target is None or target == self.name:
            self.stats.messengers_lost += 1
            self.system.trace(
                messenger, "lost", self.name,
                "arrived at retired daemon with no live forward target",
            )
            self.system.messenger_done(messenger, lost=True)
            return
        yield self.host.busy(
            costs.hop_dispatch_s,
            category="dispatch",
            label="hop.forward",
        )
        self.stats.forwarded += 1
        if self.sim.obs is not None:
            self.sim.obs.count("messengers.forwarded")
        self.system.trace(messenger, "forward", self.name, f"-> {target}")
        self.system.network.post(Packet(
            src=self.name,
            dst=target,
            port=self.port_name,
            payload=packet.payload,
            size_bytes=packet.size_bytes,
        ))

    def _interpreter_loop(self):
        """Pop ready Messengers and run each to its next preemption point.

        This loop *is* the modified non-preemptive scheduler: a
        Messenger's computational statements and native calls execute as
        one uninterrupted burst; control returns to the daemon only at
        navigational statements, virtual-time suspensions, or
        termination (§2.1).
        """
        while True:
            messenger = None  # park holding no work item
            messenger = yield self.ready.get()
            if not messenger.alive:
                continue
            try:
                yield from self._execute_slice(messenger)
            except HostCrashedError:
                # The host died under the slice: the Messenger is a
                # crash casualty (recovery kills and replays it from
                # its checkpoint), not a script error.
                continue
            except Exception as error:  # noqa: BLE001 - daemon must survive
                # The failed Messenger was already recorded as a casualty
                # by _execute_slice; the daemon itself keeps serving.
                # run_to_quiescence() re-raises recorded errors.
                self.system.script_errors.append(error)

    # -- execution ---------------------------------------------------------------------

    def _execute_slice(self, messenger: Messenger):
        costs = self.system.costs
        env = NativeEnv(self.system, self, messenger)
        native_calls = 0
        metrics = self.sim.obs
        opcounts = (
            {}
            if metrics is not None and metrics.opcode_counts
            else None
        )

        def call_native(name, args):
            nonlocal native_calls
            native_calls += 1
            function = self.system.natives.lookup(name)
            return function(env, *args)

        def netvar(name):
            return self.system.netvar(self, messenger, name)

        try:
            command = self._vm_run(
                messenger.frame,
                messenger.variables,
                messenger.node.variables,
                netvar,
                call_native,
                opcounts=opcounts,
            )
        except Exception:
            # Script or native-function failure: record the casualty and
            # unregister it so the rest of the system stays consistent,
            # then let the error surface (errors never pass silently).
            self.system.messenger_failed(messenger)
            raise

        self.stats.executed_slices += 1
        self.stats.instructions += command.instructions
        self.stats.native_calls += native_calls
        messenger.instructions_executed += command.instructions

        interp = (
            command.instructions * costs.interp_instr_s
            + native_calls * costs.native_call_s
        )
        charges = env.drain_charges()
        busy = interp + sum(charges.values())
        if busy > 0:
            # One uninterrupted burst (the non-preemptive policy); the
            # attribution is split below: script interpretation versus
            # whatever the natives charged (compute, copies, ...).
            yield self.host.busy(busy, category=None, label="slice")
        if not messenger.alive:
            # Killed mid-burst (crash recovery, or an external kill()):
            # the work was charged, but the resulting command must not
            # act for a dead Messenger.  Deactivation is idempotent, so
            # this composes with recovery having already accounted it.
            self.system.deactivate(messenger)
            return
        if metrics is not None:
            metrics.count("messengers.slices")
            metrics.count(
                "mcl.vm.instructions_total", command.instructions
            )
            if native_calls:
                metrics.count("messengers.native_calls", native_calls)
            metrics.charge("interpretation", interp)
            for category, seconds in charges.items():
                metrics.charge(category, seconds)
            if opcounts:
                family = metrics.counter_family(
                    "mcl.vm.instructions", "opcode"
                )
                for code, count in opcounts.items():
                    family.inc(OPCODE_NAMES[code], count)

        if isinstance(command, DoneCommand):
            self.stats.messengers_finished += 1
            self.system.trace(messenger, "done", self.name)
            self.system.messenger_done(messenger)
        elif isinstance(command, SchedCommand):
            suspended = self.system.vtime.suspend(
                self, messenger, command.kind, command.time
            )
            self.system.trace(
                messenger,
                "sched",
                self.name,
                f"{command.kind}({command.time:g})"
                + ("" if suspended else " immediate"),
            )
            if suspended:
                self.system.deactivate(messenger)
            else:
                self.enqueue_ready(messenger)
        elif isinstance(command, (HopCommand, DeleteCommand)):
            yield from self._do_hop(
                messenger, command, delete=isinstance(command, DeleteCommand)
            )
        elif isinstance(command, CreateCommand):
            yield from self._do_create(messenger, command)
        else:  # pragma: no cover - exhaustive over Command subclasses
            raise RuntimeError(f"unhandled command {command!r}")

    # -- navigation ---------------------------------------------------------------------

    def _do_hop(self, messenger: Messenger, command, delete: bool):
        """Replicate ``messenger`` to every matching destination (§2.1)."""
        costs = self.system.costs
        logical = self.system.logical
        moves = logical.match_moves(
            messenger.node, command.ln, command.ll, command.ldir
        )
        if delete:
            for link, _node in moves:
                if link is not None:
                    logical.delete_link(link)
                    self.stats.links_deleted += 1
            if moves:
                yield self.host.busy(
                    costs.logical_create_s * len(moves),
                    category="dispatch",
                    label="link.delete",
                )

        if not moves:
            # No destination matches: the Messenger ceases to exist.
            self.stats.messengers_lost += 1
            self.system.trace(
                messenger, "lost", self.name,
                f"hop(ln={command.ln}, ll={command.ll}) matched nothing",
            )
            self.system.messenger_done(messenger, lost=True)
            return

        replicas = [messenger]
        for _ in moves[1:]:
            replica = messenger.clone()
            self.system.register_replica(replica)
            replicas.append(replica)

        state = messenger.state_bytes()
        dispatch_cost = 0.0
        copy_cost = 0.0
        n_local = 0
        n_remote = 0
        for (link, node), replica in zip(moves, replicas):
            replica.place(node, link)
            if node.daemon == self.name:
                dispatch_cost += costs.hop_dispatch_s
                copy_cost += state * costs.msgr_state_local_per_byte_s
                self.stats.hops_out_local += 1
                n_local += 1
                self.system.trace(
                    replica, "hop", self.name, "local"
                )
                self.enqueue_ready(replica)
            else:
                self.stats.hops_out_remote += 1
                n_remote += 1
                self.system.trace(
                    replica, "hop", self.name,
                    f"-> {node.daemon} ({state}B)",
                )
                packet = Packet(
                    src=self.name,
                    dst=node.daemon,
                    port=self.port_name,
                    payload=("messenger", replica),
                    size_bytes=state,
                )
                self.system.network.post(packet)
                self.system.checkpoint_dispatch(
                    replica, holder=self.name, kind="hop"
                )
        local_cost = dispatch_cost + copy_cost
        if local_cost > 0:
            yield self.host.busy(local_cost, category=None, label="hop.local")
        metrics = self.sim.obs
        if metrics is not None:
            metrics.count("messengers.hops", n_local + n_remote)
            if n_local:
                metrics.count("messengers.hops_local", n_local)
            if n_remote:
                metrics.count("messengers.hops_remote", n_remote)
                metrics.count("messengers.state_bytes_moved",
                              state * n_remote)
            metrics.charge("dispatch", dispatch_cost)
            metrics.charge("copies", copy_cost)

    def _create_local(self, messenger: Messenger, item, origin_node):
        """Materialize one create item on *this* daemon's tables."""
        logical = self.system.logical
        node = logical.create_node(item.ln, self.name)
        directed = item.ldir in ("+", "-")
        if item.ldir == "-":
            link = logical.create_link(item.ll, node, origin_node, True)
        else:
            link = logical.create_link(
                item.ll, origin_node, node, directed
            )
        self.stats.nodes_created += 1
        self.stats.links_created += 1
        messenger.place(node, link)

    def _do_create(self, messenger: Messenger, command: CreateCommand):
        """Create new logical nodes/links, replicating the Messenger into
        each new node (§2.1: "the Messenger automatically moves to the
        new node")."""
        costs = self.system.costs
        origin = messenger.node
        placements = []  # (daemon_name, item)
        daemons = self.system.daemons
        for item in command.items:
            candidates = [
                c
                for c in self.system.daemon_graph.matches(
                    self.name, item.dn, item.dl, item.ddir
                )
                if not daemons[c].dead and not daemons[c].retired
            ]
            if not candidates:
                continue
            if command.all_daemons:
                placements.extend((daemon, item) for daemon in candidates)
            else:
                placements.append(
                    (self.system.choose_daemon(self.name, candidates), item)
                )

        if not placements:
            self.stats.messengers_lost += 1
            self.system.messenger_done(messenger, lost=True)
            return

        replicas = [messenger]
        for _ in placements[1:]:
            replica = messenger.clone()
            self.system.register_replica(replica)
            replicas.append(replica)

        state = messenger.state_bytes()
        dispatch_cost = 0.0
        copy_cost = 0.0
        for (daemon_name, item), replica in zip(placements, replicas):
            if daemon_name == self.name:
                self._create_local(replica, item, origin)
                self.system.trace(replica, "create", self.name, "local")
                dispatch_cost += 2 * costs.logical_create_s
                copy_cost += state * costs.msgr_state_local_per_byte_s
                self.enqueue_ready(replica)
            else:
                packet = Packet(
                    src=self.name,
                    dst=daemon_name,
                    port=self.port_name,
                    payload=("create", (replica, item, origin)),
                    size_bytes=state + 64,  # state + create request header
                )
                self.system.network.post(packet)
                self.system.checkpoint_dispatch(
                    replica,
                    holder=self.name,
                    kind="create",
                    item=item,
                    origin=origin,
                    dest=daemon_name,
                )
        local_cost = dispatch_cost + copy_cost
        if local_cost > 0:
            yield self.host.busy(
                local_cost, category=None, label="create.local"
            )
        metrics = self.sim.obs
        if metrics is not None:
            metrics.charge("dispatch", dispatch_cost)
            metrics.charge("copies", copy_cost)

    def __repr__(self) -> str:
        return f"<Daemon {self.name} ready={len(self.ready)}>"
