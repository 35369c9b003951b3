"""Coroutine processes for the simulation kernel.

A process wraps a Python generator.  The generator ``yield``\\ s
:class:`~repro.des.core.Event` objects; the process resumes when the event
fires, receiving the event's value as the result of the ``yield``
expression (or having the event's exception thrown into it).

Hot-path notes: a process parks on an event by appending one *cached*
bound method (``_resume_cb``) to the event's callback list and recording
the slot index, so an interrupt can detach it in O(1) by tombstoning the
slot instead of ``list.remove``.  ``Process`` and ``Initialize`` use
``__slots__`` and inline ``Event.__init__`` — one of each is allocated
per process, and the messenger layers spawn processes by the thousand.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from types import GeneratorType
from typing import Any, Optional

from .core import (
    Event,
    NORMAL,
    PENDING,
    URGENT,
    _NO_WAITERS,
    _new_event,
)
from .errors import Interrupt, ProcessDead, SimulationError

__all__ = ["Process", "Initialize"]


class Initialize(Event):
    """Internal event that kicks off a newly created process (built
    only by :class:`Process`)."""

    __slots__ = ()


class Process(Event):
    """An executing generator.  The process is itself an event that fires
    with the generator's return value when the generator finishes — so one
    process can wait for another simply by yielding it.
    """

    __slots__ = (
        "_generator",
        "daemon",
        "_target",
        "_resume_cb",
        "_park_idx",
        "_send",
    )

    def __init__(self, sim, generator, daemon: bool = False):
        if not isinstance(generator, GeneratorType):
            raise TypeError(
                f"process() needs a generator, got {generator!r}; "
                "did you forget to call the generator function?"
            )
        self.sim = sim
        self.callbacks = _NO_WAITERS
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._generator = generator
        # ``send`` is cached because it runs once per resume; ``throw``
        # is looked up lazily in the (rare) failure branch.
        self._send = generator.send
        #: Daemon processes (service loops) may wait forever without
        #: tripping the simulator's drain-time deadlock check.
        self.daemon = daemon
        #: One bound method for the process's lifetime; parked slots are
        #: compared against it by identity when detaching.
        resume_cb = self._resume
        self._resume_cb = resume_cb
        self._park_idx = -1
        # The one place an Initialize is built, scheduled URGENT at
        # once: one per spawn, so a class call + ``__init__`` frame
        # would be measurable when layers spawn processes by the
        # thousand.
        init = _new_event(Initialize)
        init.sim = sim
        init._value = None
        init._ok = True
        init._defused = False
        init.callbacks = [resume_cb]
        eid = sim._eid
        sim._eid = eid + 1
        _heappush(sim._queue, (sim._now, URGENT, eid, False, init))
        sim._fg_pending += 1
        self._target: Optional[Event] = init
        sim._live_processes.add(self)

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def name(self) -> str:
        return self._generator.__name__

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`~repro.des.errors.Interrupt` into the process.

        The interrupt is delivered as an urgent event so it preempts
        whatever the process was waiting for.  Interrupting a finished
        process raises :class:`ProcessDead`.
        """
        if self._value is not PENDING:
            raise ProcessDead(f"{self!r} has terminated; cannot interrupt")
        if self.sim.active_process is self:
            raise SimulationError("a process cannot interrupt itself")

        interrupt_event = Event(self.sim)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks = [self._resume_interrupt]
        self.sim.schedule(interrupt_event, priority=URGENT)

    # -- internal ------------------------------------------------------------

    def _resume_interrupt(self, event: Event) -> None:
        if self._value is not PENDING:
            return  # process died before interrupt delivery; drop it
        # Detach from whatever we were waiting on: tombstone the parked
        # slot (O(1)) — indices stay valid because callback lists are
        # append-only.
        target = self._target
        if target is not None:
            cbs = target.callbacks
            idx = self._park_idx
            if (
                cbs is not None
                and 0 <= idx < len(cbs)
                and cbs[idx] is self._resume_cb
            ):
                cbs[idx] = None
        self._target = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        sim = self.sim
        sim._active_process = self
        send = self._send
        try:
            while True:
                try:
                    if event is None:
                        next_target = send(None)
                    elif event._ok:
                        next_target = send(event._value)
                    else:
                        event._defused = True
                        next_target = self._generator.throw(event._value)
                except StopIteration as stop:
                    self._target = None
                    # Break the ``self → _resume_cb → self`` cycle so the
                    # finished process dies by refcount, not gc.
                    self._resume_cb = None
                    self._send = None
                    sim._live_processes.discard(self)
                    # Inline of ``self.succeed(stop.value)``.
                    if self._value is not PENDING:
                        self.succeed(stop.value)  # raises AlreadyTriggered
                    self._ok = True
                    self._value = stop.value
                    eid = sim._eid
                    sim._eid = eid + 1
                    _heappush(
                        sim._queue, (sim._now, NORMAL, eid, False, self)
                    )
                    sim._fg_pending += 1
                    return
                except BaseException as error:
                    self._target = None
                    self._resume_cb = None
                    self._send = None
                    sim._live_processes.discard(self)
                    self.fail(error)
                    return

                try:
                    # Only Event exposes .callbacks; reading it doubles
                    # as the (hot) yielded-an-event type check.
                    cbs = next_target.callbacks
                except AttributeError:
                    # Tell the generator it misbehaved; let it clean up.
                    event = Event(sim)
                    event._ok = False
                    event._value = SimulationError(
                        f"process {self.name!r} yielded a non-event: "
                        f"{next_target!r}"
                    )
                    continue

                if cbs is not None:
                    # Not yet processed: park until it fires.  A fresh
                    # event still carries the shared no-waiters marker;
                    # build its real (single-element) list directly.
                    if cbs is _NO_WAITERS:
                        next_target.callbacks = [self._resume_cb]
                        self._park_idx = 0
                    else:
                        self._park_idx = len(cbs) if cbs else 0
                        cbs.append(self._resume_cb)
                    self._target = next_target
                    return
                # Already processed: loop and deliver immediately.
                event = next_target
        finally:
            sim._active_process = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"
