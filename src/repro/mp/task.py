"""PVM-style tasks and their programming interface.

A task is a generator function running on a simulated host.  Its first
argument is a :class:`TaskContext`, which exposes the PVM-flavoured
operations (``spawn``, ``send``, ``recv``, ``mcast``, groups, …).  All
communication charges the cost model's pack/copy/wire terms, so the
message-passing side of every benchmark pays exactly the costs the paper
attributes to it.

All context operations that take time are generators and must be invoked
as ``yield from ctx.op(...)`` (or ``result = yield from ...``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

from ..des import FilterStore
from ..netsim import Packet
from .buffers import PackBuffer, UnpackBuffer

__all__ = [
    "ANY",
    "Message",
    "SYSTEM",
    "Task",
    "TaskContext",
    "TaskKilled",
    "NO_PARENT",
]

#: Wildcard for ``recv``'s source and tag filters (PVM uses -1).
ANY = -1

#: Parent tid of tasks started from the outside (PVM returns PvmNoParent).
NO_PARENT = -1

#: Source "tid" of pvmd-generated notification messages (pvm_notify).
SYSTEM = -2


class TaskKilled(Exception):
    """Raised inside a task that was killed via ``pvm_kill``."""


@dataclass(slots=True)
class Message:
    """A received message: source tid, tag, and the unpack buffer."""

    src: int
    tag: int
    buffer: UnpackBuffer

    @property
    def nbytes(self) -> int:
        return self.buffer.nbytes


class Task:
    """Bookkeeping record for one running task."""

    def __init__(self, tid: int, host, behavior_name: str, parent: int):
        self.tid = tid
        self.host = host
        self.behavior_name = behavior_name
        self.parent = parent
        self.mailbox = FilterStore(host.sim)
        self.process = None  # set by the system after spawning
        self.exited = False
        self.exit_value: Any = None
        #: Ensures pvm_notify watchers hear about this task exactly once.
        self.exit_notified = False

    def __repr__(self) -> str:
        state = "exited" if self.exited else "running"
        return (
            f"<Task {self.tid} {self.behavior_name!r} on "
            f"{self.host.name} {state}>"
        )


class TaskContext:
    """The API a task behavior programs against (the ``pvm_*`` calls)."""

    def __init__(self, system, task: Task):
        self._system = system
        self._task = task
        self.sim = system.sim

    # -- identity -----------------------------------------------------------

    @property
    def tid(self) -> int:
        """This task's id (pvm_mytid)."""
        return self._task.tid

    @property
    def parent(self) -> int:
        """The spawning task's id, or ``NO_PARENT`` (pvm_parent)."""
        return self._task.parent

    @property
    def host(self):
        """The simulated host this task runs on."""
        return self._task.host

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    # -- spawning / lifecycle ----------------------------------------------------

    def spawn(
        self,
        behavior: Callable,
        *args,
        count: int = 1,
        hosts: Optional[Sequence[str]] = None,
    ):
        """Generator: start ``count`` new tasks (pvm_spawn).

        Returns the list of new tids.  Placement is round-robin over the
        whole cluster unless ``hosts`` pins specific machines.  Each
        spawn charges ``mp_spawn_s`` (fork + exec + enrol) on the
        caller's timeline, as PVM's synchronous spawn does.
        """
        tids = []
        for index in range(count):
            host_name = hosts[index % len(hosts)] if hosts else None
            yield self.sim.timeout(self._system.costs.mp_spawn_s)
            metrics = self.sim.obs
            if metrics is not None:
                metrics.count("mp.spawns")
                metrics.charge("protocol", self._system.costs.mp_spawn_s)
            tids.append(
                self._system.spawn(
                    behavior, *args, host=host_name, parent=self.tid
                )
            )
        return tids

    def kill(self, tid: int) -> None:
        """Terminate another task immediately (pvm_kill)."""
        self._system.kill(tid)

    def exit(self) -> None:
        """Mark this task as finished (pvm_exit).

        The behavior should ``return`` shortly after; any further
        communication is a programming error.
        """
        self._task.exited = True

    def notify_task_exit(self, tids: Sequence[int], tag: int) -> None:
        """Ask for a message when any of ``tids`` exits (pvm_notify
        TaskExit).

        Each exit delivers one message from :data:`SYSTEM` with ``tag``
        whose buffer holds the dead task's tid (``unpack_int``).  Tasks
        that are already dead notify immediately, as PVM's does.
        """
        self._system.notify_task_exit(self._task.tid, tids, tag)

    def notify_host_delete(self, tag: int) -> None:
        """Ask for a message whenever a host crashes (pvm_notify
        HostDelete).

        Each crash delivers one message from :data:`SYSTEM` with ``tag``
        whose buffer holds the dead host's name (``unpack_string``).
        """
        self._system.notify_host_delete(self._task.tid, tag)

    # -- sending ------------------------------------------------------------

    def _coerce_buffer(self, data) -> PackBuffer:
        if isinstance(data, PackBuffer):
            return data
        buf = PackBuffer()
        buf.pack_object(data)
        return buf

    def send(self, dst: int, data: Union[PackBuffer, Any], tag: int = 0,
             deadline_s: Optional[float] = None):
        """Generator: send ``data`` to task ``dst`` (pvm_send).

        Charges one memory copy of the whole buffer (pack) plus the
        per-message software overhead on this task's CPU, then hands the
        packet to the NIC.  Like ``pvm_send``, this is *asynchronous*:
        it returns once the message is safely buffered, not when it is
        received.  ``deadline_s`` (absolute virtual time) stamps the
        packet so the reliable channel stops retransmitting it once the
        carried request could only arrive too late.
        """
        buf = self._coerce_buffer(data)
        costs = self._system.costs
        pack_seconds = buf.nbytes * costs.pack_cost_per_byte_s
        yield from self._busy(
            pack_seconds + costs.mp_per_message_s, label="mp.send"
        )
        metrics = self.sim.obs
        if metrics is not None:
            metrics.count("mp.messages_sent")
            metrics.count("mp.pack.bytes_copied", buf.nbytes)
            metrics.charge("copies", pack_seconds)
            metrics.charge("protocol", costs.mp_per_message_s)
        dst_task = self._system.task(dst)
        packet = Packet(
            src=self._task.host.name,
            dst=dst_task.host.name,
            port=self._system.port_name,
            payload=(dst, self._task.tid, tag, buf),
            size_bytes=self._wire_bytes(buf.nbytes),
            deadline_s=deadline_s,
        )
        self._system.network.post(packet)

    def _wire_bytes(self, nbytes: int) -> int:
        """Payload inflated by the message-passing protocol overhead
        (``mp_wire_efficiency``): fragment headers, XDR padding, and
        daemon-routing retransmissions all consume shared-wire time."""
        return int(nbytes / self._system.costs.mp_wire_efficiency) + 32

    def mcast(
        self, tids: Sequence[int], data: Union[PackBuffer, Any], tag: int = 0
    ):
        """Generator: multicast to several tasks (pvm_mcast).

        PVM 3.3 implements multicast as a sender-side loop of unicasts;
        the buffer is packed once but each destination pays the
        per-message overhead and its own wire transfer.
        """
        buf = self._coerce_buffer(data)
        costs = self._system.costs
        pack_seconds = buf.nbytes * costs.pack_cost_per_byte_s
        yield from self._busy(pack_seconds, label="mp.pack")
        metrics = self.sim.obs
        if metrics is not None:
            metrics.count("mp.pack.bytes_copied", buf.nbytes)
            metrics.charge("copies", pack_seconds)
        for tid in tids:
            if tid == self._task.tid:
                continue  # pvm_mcast excludes the sender
            yield from self._busy(costs.mp_per_message_s, label="mp.send")
            if metrics is not None:
                metrics.count("mp.messages_sent")
                metrics.charge("protocol", costs.mp_per_message_s)
            dst_task = self._system.task(tid)
            packet = Packet(
                src=self._task.host.name,
                dst=dst_task.host.name,
                port=self._system.port_name,
                payload=(tid, self._task.tid, tag, buf),
                size_bytes=self._wire_bytes(buf.nbytes),
            )
            self._system.network.post(packet)

    # -- receiving ------------------------------------------------------------

    def recv(self, src: int = ANY, tag: int = ANY):
        """Generator: blocking receive (pvm_recv).

        Waits for the next message matching (``src``, ``tag``) — ``ANY``
        matches everything — then charges the unpack copy and returns a
        :class:`Message`.
        """

        def matches(entry):
            msg_src, msg_tag, _buf = entry
            return (src == ANY or msg_src == src) and (
                tag == ANY or msg_tag == tag
            )

        entry = yield self._task.mailbox.get(matches)
        msg_src, msg_tag, buf = entry
        costs = self._system.costs
        unpack_seconds = buf.nbytes * costs.unpack_cost_per_byte_s
        yield from self._busy(unpack_seconds, label="mp.recv")
        metrics = self.sim.obs
        if metrics is not None:
            metrics.count("mp.messages_received")
            metrics.count("mp.unpack.bytes_copied", buf.nbytes)
            metrics.charge("copies", unpack_seconds)
        return Message(msg_src, msg_tag, UnpackBuffer(buf.items, buf.nbytes))

    def recv_timeout(self, timeout_s: float, src: int = ANY, tag: int = ANY):
        """Generator: blocking receive with a timeout (pvm_trecv).

        Like :meth:`recv`, but gives up after ``timeout_s`` virtual
        seconds and returns ``None``.  The pending mailbox claim is
        withdrawn on timeout so it cannot steal a later message.
        """

        def matches(entry):
            msg_src, msg_tag, _buf = entry
            return (src == ANY or msg_src == src) and (
                tag == ANY or msg_tag == tag
            )

        get = self._task.mailbox.get(matches)
        yield get | self.sim.timeout(timeout_s)
        if not get.triggered:
            self._task.mailbox.cancel_get(get)
            return None
        msg_src, msg_tag, buf = get.value
        costs = self._system.costs
        unpack_seconds = buf.nbytes * costs.unpack_cost_per_byte_s
        yield from self._busy(unpack_seconds, label="mp.recv")
        metrics = self.sim.obs
        if metrics is not None:
            metrics.count("mp.messages_received")
            metrics.count("mp.unpack.bytes_copied", buf.nbytes)
            metrics.charge("copies", unpack_seconds)
        return Message(msg_src, msg_tag, UnpackBuffer(buf.items, buf.nbytes))

    def probe(self, src: int = ANY, tag: int = ANY) -> bool:
        """Non-blocking check for a matching queued message (pvm_probe)."""
        for msg_src, msg_tag, _buf in self._task.mailbox.items:
            if (src == ANY or msg_src == src) and (
                tag == ANY or msg_tag == tag
            ):
                return True
        return False

    # -- computation -----------------------------------------------------------

    def compute(self, flops: float, working_set_bytes: float = 0.0):
        """Generator: run a computation on this task's host CPU."""
        yield self._task.host.compute(flops, working_set_bytes)

    def delay(self, seconds: float):
        """Generator: idle (not holding the CPU) for virtual time."""
        yield self.sim.timeout(seconds)

    def _busy(
        self,
        seconds: float,
        category: Optional[str] = None,
        label: Optional[str] = None,
    ):
        """Generator: hold this host's CPU for ``seconds``.

        ``category``/``label`` feed the cost ledger and trace when a
        metrics registry is attached; ``category=None`` records an
        uncharged span so callers can split the attribution themselves.
        """
        if seconds > 0:
            yield self._task.host.busy(seconds, category=category, label=label)

    # -- groups ------------------------------------------------------------------

    # pvm_joingroup, part of the PVM 3.3 group API this baseline mirrors.
    def join_group(self, name: str) -> int:
        """Join a named group; returns the instance number."""
        return self._system.groups.join(name, self._task.tid)

    # pvm_lvgroup, part of the PVM 3.3 group API this baseline mirrors.
    def leave_group(self, name: str) -> None:
        """Leave a named group."""
        self._system.groups.leave(name, self._task.tid)

    # pvm_gettid, part of the PVM 3.3 group API this baseline mirrors.
    def tid_in_group(self, name: str, instance: int) -> int:
        """Tid of group member ``instance`` (pvm_gettid)."""
        return self._system.groups.tid_of(name, instance)

    # pvm_gsize, part of the PVM 3.3 group API this baseline mirrors.
    def group_size(self, name: str) -> int:
        """Current group size (pvm_gsize)."""
        return self._system.groups.size(name)

    def barrier(self, name: str, count: int):
        """Generator: block until ``count`` members reach the barrier."""
        yield self._system.groups.barrier(name, count)
