"""Core of the discrete-event simulation kernel.

The kernel is a small, self-contained, SimPy-flavoured engine:

* a :class:`Simulator` owns a virtual clock and a binary-heap event queue;
* an :class:`Event` is a one-shot occurrence that callbacks can wait on;
* a :class:`~repro.des.process.Process` wraps a Python generator that
  ``yield``\\ s events to wait for them.

Everything in this repository — the Ethernet model, the PVM workalike, the
MESSENGERS daemons, global virtual time — is built as processes and events
on top of this module.  All "performance" numbers reported by benchmarks
are values of the simulated clock, which makes every experiment
deterministic and hardware-independent.

Hot-path notes (the ``repro.perf`` fast path):

* every event class uses ``__slots__`` — an event is allocated per
  timeout, per store operation and per process turn, so the per-object
  ``__dict__`` was the single largest allocation cost in the kernel;
* :class:`Timeout` and the resource events initialise themselves inline
  instead of chaining ``super().__init__`` + :meth:`Simulator.schedule`;
* :meth:`Simulator.run` inlines the event loop (heap pop + callback
  dispatch) and only falls back to :meth:`Simulator.step` while
  instrumentation (metrics counter or trace hasher) is attached, so the
  golden-trace path stays byte-for-byte identical to the historical one;
* callback lists are append-only: waiters detach by *tombstoning* their
  recorded slot to ``None`` (O(1)) instead of ``list.remove`` (O(n)),
  which also keeps every other waiter's recorded index stable.

None of this changes scheduling order: the queue still orders on
``(time, priority, eid, daemon)`` with a monotonically increasing integer
``eid``, so optimised runs replay the exact event sequence of the
unoptimised kernel — the golden-hash tests in
``tests/test_perf_determinism.py`` pin that bit-identity.

The queue is one binary heap (``heapq``) and every schedule site pushes
onto ``sim._queue`` directly.  Queued objects are plain allocations:
nothing is recycled, so holding on to a fired event is always safe.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Optional

from .errors import (
    EventAlreadyTriggered,
    SimDeadlockError,
    SimulationError,
    StopSimulation,
)

__all__ = [
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Simulator",
    "PENDING",
    "URGENT",
    "NORMAL",
]

#: Sentinel for an event value that has not been set yet.
PENDING = object()

#: Scheduling priority for events that must fire before same-time events.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

# Bound once: saves a module-dict + attribute lookup on every schedule/pop.
_heappush = heapq.heappush
_heappop = heapq.heappop
_new_event = object.__new__

#: Shared placeholder for "no waiters yet".  Freshly created events point
#: their ``callbacks`` here instead of allocating an empty list each; the
#: first waiter replaces it with a real single-element list.  The object
#: is never mutated — every attach site must test for it by identity.
#: Fire-and-forget timeouts (netsim busy-waits, app delays) thus never
#: allocate a callback list at all.
_NO_WAITERS: list = []

class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*, becomes *triggered* when it is scheduled
    with a value (via :meth:`succeed` or :meth:`fail`), and is *processed*
    once the simulator has invoked its callbacks.  Processes wait on an
    event by ``yield``-ing it.

    ``callbacks`` entries may be ``None``: a waiter that detached early
    (an interrupt, a fired AnyOf) tombstones its slot rather than
    shifting the list, and dispatch skips the holes.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = (
            _NO_WAITERS
        )
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: If a failed event's exception is never retrieved, the simulator
        #: re-raises it at the end of the step ("errors never pass
        #: silently").  Waiting on the event defuses it.
        self._defused = False

    # -- introspection ----------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled to fire."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is in the past)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with.

        For failed events this is the exception instance.
        """
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so its error is not re-raised."""
        self._defused = True

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Returns the event itself so that ``return event.succeed()`` chains.
        """
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        eid = sim._eid
        sim._eid = eid + 1
        _heappush(sim._queue, (sim._now, NORMAL, eid, False, self))
        sim._fg_pending += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        Any process waiting on the event will have the exception thrown
        into it.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        sim = self.sim
        eid = sim._eid
        sim._eid = eid + 1
        _heappush(sim._queue, (sim._now, NORMAL, eid, False, self))
        sim._fg_pending += 1
        return self

    # -- composition -------------------------------------------------------

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    ``daemon=True`` marks a *background* timeout: like daemon processes,
    background timeouts never keep the simulation alive — :meth:`Simulator.run`
    returns once only background events remain in the queue.  Periodic
    service loops (failure-detector heartbeats, invariant-check ticks)
    use them so they can run forever without preventing quiescence.
    Built only by :meth:`Simulator.timeout`.
    """

    __slots__ = ("delay", "daemon")

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Condition(Event):
    """Waits for a boolean combination of sub-events.

    The value of a condition is a dict mapping each *triggered* sub-event
    to its value, in triggering order.

    Subscriptions record ``(event, slot_index)`` so that once the
    condition fires, every still-pending subscription is detached in
    O(1) per sub-event by tombstoning its slot — long-lived events
    (a retransmitter's ack, say) no longer accumulate dead checker
    callbacks round after round.
    """

    __slots__ = ("_evaluate", "_events", "_count", "_check_cb", "_subs")

    def __init__(self, sim: "Simulator", evaluate, events: Iterable[Event]):
        self.sim = sim
        self.callbacks = _NO_WAITERS
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        self._subs: tuple | list = []

        for event in self._events:
            if event.sim is not sim:
                raise SimulationError("events belong to different simulators")

        if not self._events:
            self.succeed(self._collect_values())
            return
        # One bound method for the condition's lifetime: subscription
        # slots are compared by identity when detaching.
        check = self._check
        self._check_cb = check
        for event in self._events:
            cbs = event.callbacks
            if cbs is None:
                check(event)
            elif self._value is PENDING:
                if cbs is _NO_WAITERS:
                    event.callbacks = [check]
                    self._subs.append((event, 0))
                else:
                    self._subs.append((event, len(cbs)))
                    cbs.append(check)

    def _collect_values(self) -> dict:
        return {e: e._value for e in self._events if e.triggered}

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._detach()
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())
            self._detach()

    def _detach(self) -> None:
        """Tombstone every still-pending subscription (O(1) each)."""
        check = self._check_cb
        for event, idx in self._subs:
            cbs = event.callbacks
            if cbs is not None and idx < len(cbs) and cbs[idx] is check:
                cbs[idx] = None
        self._subs = ()


class AnyOf(Condition):
    """Fires when any one of the sub-events fires."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, lambda events, count: count >= 1, events)


class AllOf(Condition):
    """Fires when all of the sub-events have fired."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(
            sim, lambda events, count: count == len(events), events
        )


class Simulator:
    """Owner of the virtual clock and the event queue.

    Typical use::

        sim = Simulator()

        def proc(sim):
            yield sim.timeout(5)
            print("t =", sim.now)

        sim.process(proc(sim))
        sim.run()
    """

    def __init__(self):
        self._now: float = 0.0
        #: The event queue: a binary heap of ``(time, priority, eid,
        #: daemon, event)`` entries, pushed with ``heapq.heappush``.
        self._queue: list = []
        #: Monotone tie-break for same-(time, priority) events; plain int
        #: increments are ~3× faster than an itertools.count round-trip.
        self._eid: int = 0
        self._active_process = None
        self._metrics = None
        self._metrics_events = None
        #: The metrics registry iff it is present *and* enabled, else
        #: None (kept in sync by the ``metrics`` setter).  Instrumented
        #: layers read this instead of :attr:`metrics`, so the disabled
        #: path costs exactly one attribute load and ``is None`` test —
        #: no property call, no tuple building, no ``enabled`` re-check.
        self.obs = None
        #: Optional :class:`repro.perf.TraceHasher`; when set, every
        #: executed event is folded into a digest (golden-trace tests).
        self.trace_hash = None
        #: Queued events that are *not* background (daemon) events; the
        #: run loop drains when this reaches zero, exactly as it used to
        #: drain when the whole queue emptied.
        self._fg_pending: int = 0
        #: Live (unfinished) processes, for deadlock detection at drain.
        self._live_processes: set = set()

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- observability -----------------------------------------------------

    @property
    def metrics(self):
        """The attached :class:`~repro.obs.MetricsRegistry`, or None.

        Every instrumented layer (netsim, mp, messengers, gvt) reports
        into this registry when present; when absent, instrumentation
        reduces to one ``is None`` test per site.
        """
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry
        enabled = registry is not None and registry.enabled
        self.obs = registry if enabled else None
        # The event-loop counter is resolved once here so step() pays a
        # single attribute test per event, not a registry lookup.
        self._metrics_events = (
            registry.counter("des.events_executed") if enabled else None
        )

    @property
    def active_process(self):
        """The process whose generator is currently executing, if any."""
        return self._active_process

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        # Inline of ``Event(self)``, skipping the ``__init__`` frame.
        event = _new_event(Event)
        event.sim = self
        event.callbacks = _NO_WAITERS
        event._value = PENDING
        event._ok = None
        event._defused = False
        return event

    def timeout(
        self, delay: float, value: Any = None, daemon: bool = False
    ) -> Timeout:
        """Create an event that fires ``delay`` time units from now.

        ``daemon=True`` makes it a background timeout that never keeps
        the simulation alive (see :class:`Timeout`).
        """
        # Hottest allocation site in the kernel: the one place a Timeout
        # is built, without an __init__ frame.  A timeout is born
        # triggered, so Event.__init__ and schedule() are bypassed;
        # ``_defused`` is deliberately not set: it is only ever read
        # behind a failed-event check, and a timeout never fails.
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        timeout = _new_event(Timeout)
        timeout.sim = self
        timeout.callbacks = _NO_WAITERS
        timeout._value = value
        timeout._ok = True
        timeout.delay = delay
        timeout.daemon = daemon
        eid = self._eid
        self._eid = eid + 1
        _heappush(
            self._queue, (self._now + delay, NORMAL, eid, daemon, timeout)
        )
        if not daemon:
            self._fg_pending += 1
        return timeout

    def process(self, generator, daemon: bool = False) -> "Process":
        """Start a new process running ``generator``.

        ``daemon=True`` marks a service loop that legitimately waits
        forever (a transmit pump, a delivery daemon, ...): such processes
        do not count as deadlocked when the event queue drains.
        """
        return _Process(self, generator, daemon=daemon)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self,
        event: Event,
        delay: float = 0.0,
        priority: int = NORMAL,
        daemon: bool = False,
        at: Optional[float] = None,
    ) -> None:
        """Insert a triggered event into the queue ``delay`` from now
        (or at the instant ``at``, with no float round trip).

        ``daemon=True`` schedules a background event that does not keep
        :meth:`run` alive once all foreground events have drained.
        """
        eid = self._eid
        self._eid = eid + 1
        time = self._now + delay if at is None else at
        _heappush(self._queue, (time, priority, eid, daemon, event))
        if not daemon:
            self._fg_pending += 1

    # Kept for code that steps a bare Simulator by hand; no layer needs it.
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if queue is empty."""
        queue = self._queue
        return queue[0][0] if queue else float("inf")

    def due_now(self) -> bool:
        """True if an event is queued for the current instant."""
        queue = self._queue
        return bool(queue) and queue[0][0] == self._now

    def step(self) -> None:
        """Process the single next event.

        Raises :class:`IndexError` ("empty schedule") if nothing is queued.
        """
        time, _prio, _eid, daemon, event = _heappop(self._queue)
        self._now = time
        if not daemon:
            self._fg_pending -= 1
        if self._metrics_events is not None:
            self._metrics_events.value += 1
        if self.trace_hash is not None:
            self.trace_hash.record(
                time, _prio, _eid, daemon, type(event).__name__
            )

        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            if callback is not None:
                callback(event)

        if not event._ok and not event._defused:
            exc = event._value
            # Unhandled failure: surface it rather than losing it.
            raise exc

    def stop(self, value: Any = None) -> None:
        """Stop the current :meth:`run` immediately."""
        raise StopSimulation(value)

    def run(self, until: Any = None) -> Any:
        """Run until the queue drains, ``until`` time passes, or an event.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, returning
          its value (or raising its exception).

        Background (daemon) events never keep the run alive: once only
        background timeouts remain queued, the run drains exactly as if
        the queue were empty.  This is what lets periodic monitors
        (failure detectors, invariant checkers) tick forever without
        wedging ``run()``.
        """
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    # Already processed: return/raise its outcome at once.
                    if stop_event._ok:
                        return stop_event._value
                    raise stop_event._value
                if stop_event.callbacks is _NO_WAITERS:
                    stop_event.callbacks = [self._stop_callback]
                else:
                    stop_event.callbacks.append(self._stop_callback)
            else:
                deadline = float(until)
                if deadline < self._now:
                    raise ValueError(
                        f"until={deadline} is in the past (now={self._now})"
                    )
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                stop_event.callbacks = [self._stop_callback]
                eid = self._eid
                self._eid = eid + 1
                _heappush(
                    self._queue, (deadline, URGENT, eid, False, stop_event)
                )
                self._fg_pending += 1

        queue = self._queue
        pop = _heappop
        length = len
        # Instrumentation (metrics counter / trace hasher) is attached
        # before run() is entered; the check is hoisted out of the loop
        # and re-evaluated on every run() call, and the instrumented
        # path routes through step() so counter and hasher observe every
        # event exactly as the historical kernel did.
        instrumented = (
            self._metrics_events is not None or self.trace_hash is not None
        )
        # ``_fg_pending > 0`` implies a non-empty queue (every foreground
        # push increments it, every foreground pop decrements it), so the
        # loop conditions below need not also test ``queue``.
        try:
            if instrumented:
                while self._fg_pending > 0:
                    self.step()
            else:
                # Inlined event loop — semantically identical to
                # ``while fg: self.step()``.
                while self._fg_pending > 0:
                    time, _prio, _eid, daemon, event = pop(queue)
                    self._now = time
                    if not daemon:
                        self._fg_pending -= 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    if length(callbacks) == 1:
                        # The overwhelmingly common case: exactly one
                        # waiter (a parked process).
                        callback = callbacks[0]
                        if callback is not None:
                            callback(event)
                    else:
                        for callback in callbacks:
                            if callback is not None:
                                callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
        except StopSimulation as stop:
            if isinstance(until, Event):
                if until._ok:
                    return until._value
                until.defuse()
                raise until._value
            return stop.value

        self._check_deadlock()
        if isinstance(until, Event) and not until.triggered:
            raise SimulationError(
                "run(until=event) finished but the event never triggered"
            )
        return None

    def _check_deadlock(self) -> None:
        """Raise :class:`SimDeadlockError` if the drained queue left
        non-daemon processes parked on events that can no longer fire."""
        blocked = sorted(
            (p for p in self._live_processes if p.is_alive and not p.daemon),
            key=lambda p: p.name,
        )
        if blocked:
            raise SimDeadlockError(
                [(p.name, _describe_wait(p)) for p in blocked]
            )

    def _stop_callback(self, event: Event) -> None:
        raise StopSimulation(event._value if event._ok else None)

    def __repr__(self) -> str:
        return f"<Simulator now={self._now} queued={len(self._queue)}>"


#: Human-readable labels for the internal wait-event classes, so a
#: :class:`SimDeadlockError` says "store.get" instead of "_Get".
_WAIT_LABELS = {
    "_Get": "store.get",
    "_FilterGet": "filter_store.get",
    "_Put": "store.put",
    "_Request": "resource.request",
    "Hold": "resource.hold",
    "CpuHold": "host.cpu",
    "FrameHold": "ethernet.medium",
    "Timeout": "timeout",
    "AnyOf": "any_of",
    "AllOf": "all_of",
    "Event": "event",
}


def _describe_wait(process) -> str:
    target = process.target
    if target is None:
        return "(nothing — never parked)"
    kind = type(target).__name__
    if kind == "Process":
        return f"process {target.name!r}"
    return _WAIT_LABELS.get(kind, kind)


# Resolved once at import time (the module cycle with .process is safe
# here: everything .process needs from this module is defined above).
# ``Simulator.process`` used to import it per call, which was a
# measurable cost when layers spawn processes by the thousand.
from .process import Process as _Process  # noqa: E402
