"""Global Virtual Time for MESSENGERS (§2.2) — conservative engine.

Messengers suspend themselves with ``M_sched_time_abs(t)`` /
``M_sched_time_dlt(dt)``.  The conservative engine guarantees that a
suspended Messenger wakes only when the *global* virtual time has
reached its wake-up time, i.e. when no Messenger anywhere could still
act at an earlier virtual time.

In the simulation, the moment "nothing can act at an earlier virtual
time" is precise: the system is *quiescent* — no Messenger is ready,
executing, or in transit; every live Messenger is suspended on the
virtual-time queue.  At that point the engine runs one synchronization
round (charged ``gvt_round_s`` per daemon plus wire latency — the
"continuous periodic exchange of timing information" the paper calls a
significant overhead), advances GVT to the minimum pending wake-up
time, and releases exactly the Messengers scheduled at that time.

The *optimistic* (Time-Warp) alternative the paper mentions is
implemented as a standalone kernel in :mod:`repro.gvt.optimistic`; see
DESIGN.md for the split.
"""

from __future__ import annotations

import heapq
import itertools

__all__ = ["ConservativeVirtualTime", "VirtualTimeError"]


class VirtualTimeError(RuntimeError):
    """Misuse of the virtual-time facility."""


class ConservativeVirtualTime:
    """The conservative GVT engine wired into the daemons."""

    def __init__(self, system):
        self._system = system
        self.gvt = 0.0
        self._pending: list = []  # heap of (wake_vt, seq, messenger, daemon)
        self._seq = itertools.count()
        #: Number of synchronization rounds performed.
        self.rounds = 0
        self._round_running = False

    # -- API used by daemons --------------------------------------------------

    def suspend(self, daemon, messenger, kind: str, time: float) -> bool:
        """Suspend ``messenger`` until virtual time per the SCHED command.

        Returns ``True`` if the Messenger was actually suspended, or
        ``False`` if its wake-up time is not in the virtual future (the
        daemon should keep it running; its ``vt`` is already advanced).
        """
        if kind == "abs":
            wake = float(time)
        elif kind == "dlt":
            wake = messenger.vt + float(time)
        else:
            raise VirtualTimeError(f"bad sched kind {kind!r}")

        if wake <= messenger.vt and wake <= self.gvt:
            # Scheduling into the virtual past/present: no suspension.
            messenger.vt = max(messenger.vt, wake)
            return False

        messenger.suspended = True
        heapq.heappush(
            self._pending, (wake, next(self._seq), messenger, daemon)
        )
        return True

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- quiescence hook ---------------------------------------------------------

    def on_quiescent(self) -> None:
        """Called by the system whenever its active count reaches zero."""
        if self._pending and not self._round_running:
            self._round_running = True
            self._system.sim.process(self._round())

    def _round_delay(self) -> float:
        # Crashed and retired daemons are excluded from the cut: the
        # survivors only exchange timing information among themselves.
        costs = self._system.costs
        n = sum(
            1
            for d in self._system.daemons.values()
            if not d.dead and not d.retired
        )
        return costs.gvt_round_s * max(n, 1) + 2 * costs.wire_latency_s

    def _round(self):
        """One GVT synchronization round (a simulation process)."""
        sim = self._system.sim
        start = sim.now
        yield sim.timeout(self._round_delay())
        self._round_running = False
        metrics = sim.obs
        if metrics is not None:
            # The timing-information exchange happened whether or not
            # GVT advances — that is the paper's "significant overhead".
            metrics.span("gvt", "round", "gvt", start, sim.now)
        if self._system.active_count > 0:
            # Someone was injected while the round was in flight; the
            # computation is no longer quiescent, so do not advance.
            return
        # Entries for Messengers that died (crash victims, script
        # failures) must not define the wake time — drop them first so
        # the head of the heap is always a real wakeup.
        while self._pending and not self._pending[0][2].alive:
            heapq.heappop(self._pending)
        if not self._pending:
            return
        self.rounds += 1
        wake_time = self._pending[0][0]
        if wake_time < self.gvt:
            raise VirtualTimeError(
                f"GVT would move backwards: {self.gvt} -> {wake_time}"
            )
        self.gvt = wake_time
        wakeups = 0
        while self._pending and self._pending[0][0] == wake_time:
            _wake, _seq, messenger, daemon = heapq.heappop(self._pending)
            if not messenger.alive:
                continue
            if (daemon.dead or daemon.retired) and messenger.node is not None:
                # The suspending daemon died (or left) and the
                # Messenger's node was re-homed: wake it where the node
                # lives now.
                daemon = self._system.daemons[messenger.node.daemon]
            messenger.vt = wake_time
            messenger.suspended = False
            self._system.activate(messenger)
            daemon.enqueue_ready(messenger)
            wakeups += 1
        if metrics is not None:
            metrics.count("gvt.rounds")
            metrics.count("gvt.wakeups", wakeups)
            metrics.gauge("gvt.value").set(self.gvt)

    def __repr__(self) -> str:
        return (
            f"<ConservativeVirtualTime gvt={self.gvt} "
            f"pending={len(self._pending)} rounds={self.rounds}>"
        )
