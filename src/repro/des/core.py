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
``eid``, so optimised runs replay the exact event sequence of the slow
kernel — the golden-hash tests in ``tests/test_perf_determinism.py`` pin
that bit-identity.

Scheduler kinds (the ``repro.perf.scale`` pass):

* ``"heap"`` (the default) keeps the single binary heap: O(log n)
  enqueue/dequeue, unbeatable constants at paper scale;
* ``"calendar"`` swaps in a :class:`CalendarQueue` — a Brown-style
  calendar of buckets, each bucket itself a tiny heap, with an adaptive
  bucket width.  Enqueue and dequeue are O(1) amortized when event
  times are spread across buckets, and degrade gracefully to plain
  heap behaviour (everything in one bucket) instead of going quadratic
  when they are not.  Pops come out in *exactly* the heap's
  ``(time, priority, eid, daemon)`` order, so traces are bit-identical
  under either scheduler (proven in ``tests/test_perf_determinism.py``).

Pick a kind per simulator (``Simulator(scheduler="calendar")``), or flip
the process-wide default with :func:`set_default_scheduler` /
``with scheduler_default("calendar"): ...``.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from sys import getrefcount as _getrefcount
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
    "CalendarQueue",
    "SCHEDULER_KINDS",
    "set_default_scheduler",
    "scheduler_default",
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

#: Valid values for ``Simulator(scheduler=...)``.
SCHEDULER_KINDS = ("heap", "calendar")

#: Process-wide default scheduler kind for new simulators.
_DEFAULT_SCHEDULER = "heap"


def set_default_scheduler(kind: str) -> str:
    """Set the scheduler kind new :class:`Simulator`\\ s use by default.

    Returns the previous default so callers can restore it.  Existing
    simulators are unaffected — the kind is fixed at construction.
    """
    global _DEFAULT_SCHEDULER
    if kind not in SCHEDULER_KINDS:
        raise ValueError(
            f"unknown scheduler {kind!r}; expected one of {SCHEDULER_KINDS}"
        )
    previous = _DEFAULT_SCHEDULER
    _DEFAULT_SCHEDULER = kind
    return previous


@contextmanager
def scheduler_default(kind: str):
    """Context manager: temporarily change the default scheduler kind."""
    previous = set_default_scheduler(kind)
    try:
        yield
    finally:
        set_default_scheduler(previous)


#: Valid values for ``Simulator(mcl_backend=...)``: the int-opcode
#: interpreter (the differential-test oracle) or the basic-block
#: closures compiler (:mod:`repro.messengers.mcl.closures`, the
#: default).  Both produce bit-identical Command streams and
#: instruction counts; only host wall clock differs.
MCL_BACKENDS = ("interp", "closures")

#: Process-wide default MCL backend for new simulators.
_DEFAULT_MCL_BACKEND = "closures"


def set_default_mcl_backend(kind: str) -> str:
    """Set the MCL backend new :class:`Simulator`\\ s use by default.

    Returns the previous default so callers can restore it.  Existing
    simulators are unaffected — the kind is fixed at construction.
    """
    global _DEFAULT_MCL_BACKEND
    if kind not in MCL_BACKENDS:
        raise ValueError(
            f"unknown MCL backend {kind!r}; expected one of {MCL_BACKENDS}"
        )
    previous = _DEFAULT_MCL_BACKEND
    _DEFAULT_MCL_BACKEND = kind
    return previous


@contextmanager
def mcl_backend_default(kind: str):
    """Context manager: temporarily change the default MCL backend."""
    previous = set_default_mcl_backend(kind)
    try:
        yield
    finally:
        set_default_mcl_backend(previous)


class CalendarQueue:
    """Calendar (bucket) event queue with heap-identical pop order.

    A ring of ``nbuckets`` buckets; an entry with time ``t`` lives in
    bucket ``int(t * inv_width) & mask``.  Each bucket is itself a small
    binary heap, so:

    * enqueue is O(1) amortized — one multiply, one mask, one heappush
      into a bucket of O(1) expected occupancy (the queue doubles its
      bucket count whenever occupancy exceeds 2 and re-estimates the
      bucket width from the observed inter-event gaps);
    * dequeue scans forward from the current virtual bucket ``_cur_v``
      and pops the head of the first bucket whose head belongs to the
      bucket under the cursor — O(1) amortized for the dense case, with
      an always-correct O(nbuckets) min-over-heads fallback for sparse
      regions (time jumps much larger than ``nbuckets * width``);
    * when every event carries the *same* time (a burst), all entries
      share one bucket and the structure degrades to exactly a binary
      heap — never worse than the heap scheduler by more than a
      constant, unlike the classic sorted-list calendar queue which
      goes quadratic.

    Pop order is *exactly* the heap's tuple order: within a bucket the
    heap yields the tuple-min, and across buckets the virtual bucket
    number ``int(t * inv_width)`` is monotone in ``t`` (multiplication
    by a positive constant and ``int()`` truncation are both monotone),
    so an entry in an earlier eligible bucket always has a strictly
    smaller time.  Same-time entries necessarily share a bucket.  The
    cursor invariant — ``_cur_v <=`` every queued entry's virtual
    bucket — is maintained by stepping the cursor back on enqueues of
    earlier times, which the kernel only produces for times ``>= now``.
    """

    __slots__ = (
        "_buckets", "_nbuckets", "_mask", "_inv_width", "_size", "_cur_v"
    )

    #: Bucket-count bounds.  The cap bounds the fallback scan and the
    #: resize cost; past it buckets simply get deeper (still heaps).
    MIN_BUCKETS = 8
    MAX_BUCKETS = 1 << 16
    #: Pop scans at most this many buckets before the min-over-heads
    #: fallback — bounds the cost of a cursor stranded far behind a
    #: sparse time jump.
    MAX_SCAN = 128

    def __init__(self, width: float = 1e-5):
        if width <= 0.0:
            raise ValueError(f"bucket width must be positive, got {width}")
        nb = self.MIN_BUCKETS
        self._buckets: list[list] = [[] for _ in range(nb)]
        self._nbuckets = nb
        self._mask = nb - 1
        self._inv_width = 1.0 / width
        self._size = 0
        self._cur_v = 0

    def __len__(self) -> int:
        return self._size

    def push(self, entry) -> None:
        """Insert ``entry`` (a ``(time, prio, eid, daemon, event)`` tuple)."""
        v = int(entry[0] * self._inv_width)
        _heappush(self._buckets[v & self._mask], entry)
        if v < self._cur_v or not self._size:
            self._cur_v = v
        size = self._size + 1
        self._size = size
        if size > (self._nbuckets << 1) and self._nbuckets < self.MAX_BUCKETS:
            self._grow()

    def pop(self):
        """Remove and return the least entry (heap tuple order)."""
        size = self._size
        if not size:
            raise IndexError("pop from an empty calendar queue")
        self._size = size - 1
        buckets = self._buckets
        mask = self._mask
        inv = self._inv_width
        v = self._cur_v
        for _ in range(self._nbuckets if self._nbuckets < self.MAX_SCAN
                       else self.MAX_SCAN):
            bucket = buckets[v & mask]
            if bucket and int(bucket[0][0] * inv) <= v:
                self._cur_v = v
                return _heappop(bucket)
            v += 1
        # Sparse region: jump the cursor straight to the earliest head.
        # Each bucket is a heap, so the min over heads is the global min
        # regardless of cursor state — this path is unconditionally
        # correct, just O(nbuckets).
        best = None
        for bucket in buckets:
            if bucket and (best is None or bucket[0] < best[0]):
                best = bucket
        self._cur_v = int(best[0][0] * inv)
        return _heappop(best)

    def peek_time(self) -> float:
        """Time of the least entry, or ``inf`` when empty (O(nbuckets))."""
        if not self._size:
            return float("inf")
        best = None
        for bucket in self._buckets:
            if bucket and (best is None or bucket[0] < best):
                best = bucket[0]
        return best[0]

    def _grow(self) -> None:
        """Double the bucket count and re-estimate the bucket width."""
        entries = []
        extend = entries.extend
        for bucket in self._buckets:
            extend(bucket)
        # Estimate width as 3x the median inter-event gap of a sorted
        # sample: robust against the one far-future heartbeat that would
        # wreck a (max - min) / n estimate.  Deterministic (stride
        # sample, no RNG) so replays resize identically.
        stride = len(entries) // 256 or 1
        times = sorted(entry[0] for entry in entries[::stride])
        gaps = sorted(b - a for a, b in zip(times, times[1:]) if b > a)
        if gaps:
            width = 3.0 * gaps[len(gaps) // 2]
            if width < 1e-12:
                width = 1e-12
            self._inv_width = 1.0 / width
        nb = self._nbuckets << 1
        self._nbuckets = nb
        mask = nb - 1
        self._mask = mask
        buckets = [[] for _ in range(nb)]
        self._buckets = buckets
        inv = self._inv_width
        cur = None
        for entry in entries:
            v = int(entry[0] * inv)
            _heappush(buckets[v & mask], entry)
            if cur is None or v < cur:
                cur = v
        if cur is not None:
            self._cur_v = cur

    def __repr__(self) -> str:
        return (
            f"<CalendarQueue size={self._size} buckets={self._nbuckets} "
            f"width={1.0 / self._inv_width:g}>"
        )


# Plain-function handles: ``sim._push(sim._queue, entry)`` works for both
# scheduler kinds without a per-call bound-method allocation.
_cal_push = CalendarQueue.push
_cal_pop = CalendarQueue.pop


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
        sim._push(sim._queue, (sim._now, NORMAL, eid, False, self))
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
        sim._push(sim._queue, (sim._now, NORMAL, eid, False, self))
        sim._fg_pending += 1
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (for chaining)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

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
    """

    __slots__ = ("delay", "daemon")

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        value: Any = None,
        daemon: bool = False,
    ):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inline Event.__init__ + Simulator.schedule: a timeout is born
        # triggered, so the generic pending-state machinery is bypassed.
        # ``_defused`` is deliberately not set: it is only ever read
        # behind a failed-event check, and a timeout never fails.
        self.sim = sim
        self.callbacks = _NO_WAITERS
        self._value = value
        self._ok = True
        self.delay = delay
        self.daemon = daemon
        eid = sim._eid
        sim._eid = eid + 1
        sim._push(sim._queue, (sim._now + delay, NORMAL, eid, daemon, self))
        if not daemon:
            sim._fg_pending += 1

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

    def __init__(
        self,
        scheduler: Optional[str] = None,
        mcl_backend: Optional[str] = None,
    ):
        kind = _DEFAULT_SCHEDULER if scheduler is None else scheduler
        if kind not in SCHEDULER_KINDS:
            raise ValueError(
                f"unknown scheduler {kind!r}; expected one of "
                f"{SCHEDULER_KINDS}"
            )
        #: Scheduler kind ("heap" or "calendar"), fixed at construction.
        self.scheduler = kind
        backend = (
            _DEFAULT_MCL_BACKEND if mcl_backend is None else mcl_backend
        )
        if backend not in MCL_BACKENDS:
            raise ValueError(
                f"unknown MCL backend {backend!r}; expected one of "
                f"{MCL_BACKENDS}"
            )
        #: MCL execution backend ("interp" or "closures"), fixed at
        #: construction; daemons resolve their VM entry point from it.
        self.mcl_backend = backend
        self._now: float = 0.0
        # ``_push(queue, entry)`` / ``_pop(queue)`` are plain functions
        # resolved once here, so every schedule site pays one attribute
        # load instead of a per-call isinstance test.  Both schedulers
        # pop in identical ``(time, prio, eid, daemon)`` order.
        if kind == "heap":
            self._queue: Any = []
            self._push = _heappush
            self._pop = _heappop
        else:
            self._queue = CalendarQueue()
            self._push = _cal_push
            self._pop = _cal_pop
        #: Free-list of recycled Timeout objects.  The uninstrumented
        #: run loop returns a just-fired timeout here when it can prove
        #: (via refcount) that nobody else holds it; :meth:`timeout`
        #: then reinitialises it in place of a fresh allocation.
        self._timeout_pool: list = []
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
        # Hottest allocation site in the kernel: build the Timeout here
        # without a second __init__ frame (mirrors Timeout.__init__),
        # reusing a recycled object from the free-list when one exists.
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
        else:
            timeout = _new_event(Timeout)
            timeout.sim = self
        timeout.callbacks = _NO_WAITERS
        timeout._value = value
        timeout._ok = True
        timeout.delay = delay
        timeout.daemon = daemon
        eid = self._eid
        self._eid = eid + 1
        self._push(
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
    ) -> None:
        """Insert a triggered event into the queue ``delay`` from now.

        ``daemon=True`` schedules a background event that does not keep
        :meth:`run` alive once all foreground events have drained.
        """
        eid = self._eid
        self._eid = eid + 1
        self._push(
            self._queue, (self._now + delay, priority, eid, daemon, event)
        )
        if not daemon:
            self._fg_pending += 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if queue is empty."""
        queue = self._queue
        if not queue:
            return float("inf")
        if self._pop is _heappop:
            return queue[0][0]
        return queue.peek_time()

    def due_now(self) -> bool:
        """True if an event is queued for the current instant."""
        queue, now = self._queue, self._now
        if self._pop is not _heappop:
            # Calendar: same-time entries share a bucket (itself a heap).
            queue = queue._buckets[int(now * queue._inv_width) & queue._mask]
        return bool(queue) and queue[0][0] == now

    def step(self) -> None:
        """Process the single next event.

        Raises :class:`IndexError` ("empty schedule") if nothing is queued.
        """
        time, _prio, _eid, daemon, event = self._pop(self._queue)
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
                self._push(
                    self._queue, (deadline, URGENT, eid, False, stop_event)
                )
                self._fg_pending += 1

        queue = self._queue
        pop = self._pop
        length = len
        refcount = _getrefcount
        pool = self._timeout_pool
        recycle = pool.append
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
                    # Recycle fire-and-forget timeouts: refcount 2 means
                    # the only references are this frame's local and the
                    # getrefcount argument — no condition, process frame,
                    # or user variable holds the object, so reusing it is
                    # invisible.  (Timeout has no __weakref__ slot, so no
                    # untracked reference can exist.)
                    if (
                        type(event) is Timeout
                        and refcount(event) == 2
                        and length(pool) < 4096
                    ):
                        recycle(event)
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
