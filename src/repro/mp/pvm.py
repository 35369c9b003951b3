"""The message-passing system object (the PVM-workalike "virtual machine").

One :class:`MessagePassingSystem` spans the whole simulated cluster: it
places tasks on hosts (round-robin by default, like ``pvm_spawn`` with
default placement), runs a per-host delivery daemon that routes arriving
packets into task mailboxes, and tracks task lifecycles.

This substrate is the baseline the paper compares MESSENGERS against;
its cost structure (buffer copies, per-message overhead, spawn cost,
central manager traffic) is charged explicitly from the
:class:`~repro.netsim.costs.CostModel`.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from ..des import Simulator
from ..netsim import CostModel, Network
from .buffers import PackBuffer
from .groups import GroupRegistry
from .task import NO_PARENT, SYSTEM, Task, TaskContext, TaskKilled

__all__ = ["MessagePassingSystem"]


class MessagePassingSystem:
    """PVM-flavoured message passing over a simulated network."""

    #: Network port all task-to-task traffic uses.
    port_name = "pvm"

    def __init__(self, network: Network):
        self.network = network
        self.sim: Simulator = network.sim
        self.costs: CostModel = network.costs
        self.groups = GroupRegistry(self.sim)
        #: Messages that arrived for dead/unknown tasks.
        self.dropped = 0
        self._tasks: dict[int, Task] = {}
        self._tids = itertools.count(1)
        self._placement = itertools.cycle(network.host_names)
        #: pvm_notify registrations: dead tid -> [(watcher, tag), ...]
        #: and host-delete watchers [(watcher, tag), ...].
        self._exit_watchers: dict[int, list[tuple[int, int]]] = {}
        self._host_watchers: list[tuple[int, int]] = []
        #: Crash victims whose notifications are held back until the
        #: failure is announced (oracle mode announces immediately).
        self._silenced: set[int] = set()
        self._crash_victims: dict[str, list[int]] = {}
        # Task traffic opts into at-least-once + dedup delivery; free
        # until a lossy fault plan is attached.
        network.set_reliable(self.port_name)
        network.add_crash_listener(self._on_host_crash)
        network.add_failure_listener(self._on_host_failure)
        self._attached_hosts: set[str] = set(network.host_names)
        for host_name in network.host_names:
            self.sim.process(self._delivery_daemon(host_name), daemon=True)

    def attach_host(self, host_name: str) -> None:
        """Enrol a host added after construction (host churn).

        Starts the pvmd delivery daemon for the new host and folds it
        into round-robin placement.  Idempotent per host name.
        """
        if host_name in self._attached_hosts:
            return
        self.network.host(host_name)  # raises KeyError if unknown
        self._attached_hosts.add(host_name)
        self._placement = itertools.cycle(
            sorted(self._attached_hosts)
        )
        self.sim.process(self._delivery_daemon(host_name), daemon=True)

    # -- task management -----------------------------------------------------

    def spawn(
        self,
        behavior: Callable,
        *args,
        host: Optional[str] = None,
        parent: int = NO_PARENT,
    ) -> int:
        """Start a task running ``behavior(ctx, *args)``; returns its tid.

        This is the system-level entry point (no spawn cost charged);
        tasks spawning other tasks should use
        :meth:`~repro.mp.task.TaskContext.spawn`, which charges
        ``mp_spawn_s`` per child.
        """
        host_name = host if host is not None else next(self._placement)
        tid = next(self._tids)
        host_obj = self.network.host(host_name)
        task = Task(tid, host_obj, behavior.__name__, parent)
        self._tasks[tid] = task
        if host_obj.crashed:
            # The pvmd on a dead host cannot enrol anything: the spawn
            # is stillborn.  The tid is returned exited, so a parent's
            # pvm_notify subscription fires immediately and its re-queue
            # logic recovers — the same path as a post-spawn crash.
            task.exited = True
            faults = self.network.faults
            if faults is not None:
                faults.count("spawns_to_dead_host")
            return tid
        context = TaskContext(self, task)
        task.process = self.sim.process(
            self._run_task(task, behavior, context, args)
        )
        return tid

    def _run_task(self, task: Task, behavior, context, args):
        from ..des import Interrupt

        try:
            result = yield from behavior(context, *args)
            task.exit_value = result
        except Interrupt as intr:
            if not isinstance(intr.cause, TaskKilled):
                raise
            task.exit_value = None
        finally:
            task.exited = True
            self._task_exited(task)
        return task.exit_value

    def task(self, tid: int) -> Task:
        """Look up a task record by tid."""
        try:
            return self._tasks[tid]
        except KeyError:
            raise KeyError(f"unknown tid {tid}") from None

    def kill(self, tid: int) -> None:
        """Forcibly terminate a task (pvm_kill)."""
        task = self.task(tid)
        if task.exited:
            return
        task.exited = True
        if task.process is not None and task.process.is_alive:
            task.process.interrupt(TaskKilled())

    @property
    def live_tasks(self) -> list[Task]:
        """Tasks that have not exited yet."""
        return [t for t in self._tasks.values() if not t.exited]

    # -- pvm_notify ----------------------------------------------------------

    def notify_task_exit(
        self, watcher_tid: int, tids, tag: int
    ) -> None:
        """Register ``watcher_tid`` for TaskExit messages about ``tids``.

        A tid that is already dead (or unknown — PVM treats a bad tid as
        an exited task) notifies immediately.
        """
        for tid in tids:
            task = self._tasks.get(tid)
            if task is None or task.exited:
                self._deliver_notification(
                    watcher_tid, tag, PackBuffer().pack_int(tid)
                )
            else:
                self._exit_watchers.setdefault(tid, []).append(
                    (watcher_tid, tag)
                )

    def notify_host_delete(self, watcher_tid: int, tag: int) -> None:
        """Register ``watcher_tid`` for HostDelete messages (host
        crashes)."""
        self._host_watchers.append((watcher_tid, tag))

    def _deliver_notification(
        self, watcher_tid: int, tag: int, buf: PackBuffer
    ) -> None:
        """The watcher's local pvmd synthesizes the message, so delivery
        is direct — no wire transfer from the (possibly dead) subject."""
        watcher = self._tasks.get(watcher_tid)
        if watcher is None or watcher.exited:
            self.dropped += 1
            return
        faults = self.network.faults
        if faults is not None:
            faults.count("notifications")
        watcher.mailbox.put((SYSTEM, tag, buf))

    def _task_exited(self, task: Task) -> None:
        if task.exit_notified or task.tid in self._silenced:
            return
        task.exit_notified = True
        for watcher_tid, tag in self._exit_watchers.pop(task.tid, []):
            self._deliver_notification(
                watcher_tid, tag, PackBuffer().pack_int(task.tid)
            )

    def _on_host_crash(self, host, lost_packets) -> None:
        """Physical phase of a crash: resident tasks die, silently.

        The tasks stop executing *now* (a dead CPU runs nothing), but
        the pvmds on the survivors have not noticed yet — TaskExit and
        HostDelete notifications wait for :meth:`_on_host_failure`
        (which follows immediately in oracle mode and at detection time
        when a failure detector drives the announcement).
        """
        victims = [
            task for task in self._tasks.values()
            if task.host is host and not task.exited
        ]
        faults = self.network.faults
        if faults is not None and victims:
            faults.count("tasks_crashed", len(victims))
        for task in victims:
            self._silenced.add(task.tid)
            self.kill(task.tid)
        self._crash_victims[host.name] = [t.tid for t in victims]

    def _on_host_failure(self, host) -> None:
        """Knowledge phase of a crash: the surviving pvmds tell watchers.

        Order mirrors PVM: the dead host's tasks notify first (their
        TaskExit notifications fire), then HostDelete notifications go
        out.  The watcher's local pvmd synthesizes both, so delivery
        does not depend on the dead host.
        """
        for tid in self._crash_victims.pop(host.name, []):
            self._silenced.discard(tid)
            task = self._tasks.get(tid)
            if task is not None:
                self._task_exited(task)
        for watcher_tid, tag in list(self._host_watchers):
            self._deliver_notification(
                watcher_tid, tag, PackBuffer().pack_string(host.name)
            )

    def wait_for(self, tid: int):
        """Event that fires when the task's behavior finishes."""
        return self.task(tid).process

    def run_until_task(self, tid: int) -> Any:
        """Drive the simulation until task ``tid`` finishes."""
        return self.sim.run(until=self.wait_for(tid))

    # -- delivery ------------------------------------------------------------------

    def _delivery_daemon(self, host_name: str):
        """Route packets arriving at one host into task mailboxes.

        A real pvmd demultiplexes incoming TCP/UDP traffic the same way.
        Messages for dead or unknown tasks are dropped (with a counter),
        as PVM drops mail for exited tasks.
        """
        port = self.network.host(host_name).port(self.port_name)
        while True:
            packet = buf = task = None  # park holding no work item
            packet = yield port.get()
            dst_tid, src_tid, tag, buf = packet.payload
            task = self._tasks.get(dst_tid)
            if task is None or task.exited:
                self.dropped += 1
                continue
            yield task.mailbox.put((src_tid, tag, buf))

    def __repr__(self) -> str:
        return (
            f"<MessagePassingSystem tasks={len(self._tasks)} "
            f"live={len(self.live_tasks)}>"
        )
