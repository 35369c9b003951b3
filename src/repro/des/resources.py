"""Shared resources for simulation processes.

Three primitives cover everything the upper layers need:

* :class:`Resource` — a counted semaphore (e.g. a CPU, a bus), with
  :class:`Hold` for the common "occupy a slot for a fixed time" in one
  kernel event;
* :class:`Store` — an unbounded-or-bounded FIFO of Python objects
  (e.g. a daemon's inbox, a PVM message queue);
* :class:`PriorityStore` — a store that releases the smallest item first
  (used for virtual-time event queues).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

from .core import Event, PENDING, Simulator, _NO_WAITERS
from .errors import SimulationError

__all__ = ["Resource", "Hold", "Store", "PriorityStore", "FilterStore"]


class _Request(Event):
    """Pending acquisition of a resource slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.sim = resource.sim
        self.callbacks = _NO_WAITERS
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.resource = resource
        resource.enqueue(self)

    #: Called by the resource when the slot is granted.
    _grant = Event.succeed

    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, *exc) -> None:
        self.resource.release(self)


class Hold(Event):
    """One slot of a resource, occupied for ``seconds`` once granted.

    The event *is* the completion: queued FIFO with the requests, it is
    scheduled at ``grant time + seconds`` (the float sum a request /
    timeout / release sequence produces) and its first callback,
    :meth:`Resource.finish`, returns the slot, so the next in line has
    started before a waiter resumes.  One kernel event, no process.
    Subclasses override :meth:`_grant` to decide at grant time (a
    crashed host fails the hold) and :meth:`_done` to account for it.
    """

    __slots__ = ("seconds", "start", "_cbs")

    def __init__(self, resource: "Resource", seconds: float):
        if seconds < 0:
            raise ValueError(f"negative hold time {seconds}")
        Event.__init__(self, resource.sim)
        #: The callback list, still reachable while it is being run.
        self.callbacks = self._cbs = [resource.finish]
        self.seconds = seconds

    def _grant(self) -> None:
        self.start = self.sim._now  # for the owner's accounting
        self._ok = True
        self._value = None
        self.sim.schedule(self, self.seconds)

    def _done(self) -> None:
        """The time is up and the slot returned; waiters run next."""


class Resource:
    """A counted resource with FIFO granting.

    Usage::

        cpu = Resource(sim, capacity=1)

        def proc(sim):
            req = cpu.request()
            yield req
            try:
                yield sim.timeout(3)       # hold the cpu
            finally:
                cpu.release(req)
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._users: set = set()
        self._waiting: deque = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    def request(self) -> _Request:
        """Request a slot; the returned event fires when granted."""
        return _Request(self)

    def hold(self, seconds: float) -> Hold:
        """Occupy a slot for ``seconds`` once granted; the returned
        event fires when the time is up and the slot is returned."""
        return self.enqueue(Hold(self, seconds))

    def enqueue(self, waiter):
        """Grant ``waiter`` (a request or a :class:`Hold`) a slot now,
        or queue it behind everyone already waiting."""
        if len(self._users) < self.capacity:
            self._users.add(waiter)
            waiter._grant()
        else:
            self._waiting.append(waiter)
        return waiter

    def release(self, request) -> None:
        """Return a previously granted slot (a :class:`Hold` does this
        itself when its time is up)."""
        if request in self._users:
            self._users.remove(request)
        else:
            # Cancelling a queued request is also a release.
            try:
                self._waiting.remove(request)
                return
            except ValueError:
                raise SimulationError("release() of a request never granted")
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            nxt._grant()

    def finish(self, hold: Hold) -> None:
        """First callback of every :class:`Hold`: return the slot."""
        self.release(hold)
        if hold._ok:
            hold._done()
        requeue_if_due(hold)


def requeue_if_due(event: Event) -> None:
    """Close a completion's first callback (``event._cbs`` is its list)."""
    cbs = event._cbs
    if len(cbs) > 1 and event.sim.due_now():
        # Something else is due at this very instant.  A sub-process
        # woke its waiter through an event created now, behind all
        # that, and simulated results are pinned to that order: the
        # waiters go round again (in the same slots, so a parked
        # process still detaches; a failure is unhandled only then).
        event.callbacks = [_rearm, *cbs[1:]]
        del cbs[1:]
        event._defused = True
        event.sim.schedule(event)


def _rearm(event: Event) -> None:
    event._defused = False


class _Get(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        self.sim = store.sim
        self.callbacks = _NO_WAITERS
        self._value = PENDING
        self._ok = None
        self._defused = False
        store._getters.append(self)
        store._dispatch()


class _FilterGet(Event):
    __slots__ = ("predicate",)

    def __init__(self, store: "FilterStore", predicate):
        self.sim = store.sim
        self.callbacks = _NO_WAITERS
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.predicate = predicate
        store._getters.append(self)
        store._dispatch()


class _Put(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        self.sim = store.sim
        self.callbacks = _NO_WAITERS
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.item = item
        store._putters.append(self)
        store._dispatch()


class Store:
    """FIFO store of arbitrary items, optionally bounded.

    ``put`` returns an event that fires once the item is accepted (always
    immediately for unbounded stores); ``get`` returns an event that fires
    with the oldest item once one is available.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: deque = deque()
        self._getters: deque = deque()
        self._putters: deque = deque()

    # -- container-ish introspection -----------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> list:
        """Snapshot of currently stored items (oldest first)."""
        return list(self._items)

    # -- operations -------------------------------------------------------------

    def put(self, item: Any) -> Event:
        """Insert ``item``; returned event fires when accepted."""
        return _Put(self, item)

    def push(self, item: Any) -> None:
        """:meth:`put` for a caller that ignores the returned event:
        none is scheduled, unless the store is full (or has putters
        queued) and the item must wait its turn."""
        if self._putters or len(self._items) >= self.capacity:
            self.put(item)
            return
        self._store_item(item)
        if self._getters:
            self._dispatch()

    def get(self) -> Event:
        """Remove and return the oldest item via the returned event."""
        return _Get(self)

    def cancel_get(self, get_event: Event) -> bool:
        """Withdraw a still-pending ``get``; returns False if it already
        fired (or was never ours).

        A getter that lost an ``AnyOf`` race (e.g. a recv-with-timeout)
        must be withdrawn, or it would silently steal a later item.
        """
        if get_event.triggered:
            return False
        try:
            self._getters.remove(get_event)
        except ValueError:
            return False
        return True

    def clear(self) -> list:
        """Drop and return everything currently stored.

        Waiting getters stay parked (their events remain pending); the
        fault layer uses this to model volatile queues lost in a host
        crash.
        """
        items = list(self._items)
        self._items.clear()
        self._admit_putters()
        return items

    # -- internals ---------------------------------------------------------------

    def _store_item(self, item: Any) -> None:
        self._items.append(item)

    def _pop_item(self) -> Any:
        return self._items.popleft()

    def _admit_putters(self) -> None:
        while self._putters and len(self._items) < self.capacity:
            put = self._putters.popleft()
            self._store_item(put.item)
            put.succeed()

    def _dispatch(self) -> None:
        self._admit_putters()
        while self._getters and self._items:
            get = self._match_getter()
            if get is None:
                break
            self._admit_putters()
        # A successful get may have freed capacity for a waiting putter,
        # whose item may in turn satisfy a waiting getter.
        if self._getters and self._items:
            self._dispatch()

    def _match_getter(self) -> Optional[Event]:
        get = self._getters.popleft()
        get.succeed(self._pop_item())
        return get


# Kept for parity with SimPy's store family; no layer here uses it.
class PriorityStore(Store):
    """A store whose ``get`` returns the smallest item (heap order).

    Items must be comparable; the virtual-time layers store
    ``(timestamp, tiebreak, payload)`` tuples.
    """

    def _store_item(self, item: Any) -> None:
        heapq.heappush(self._items, item)  # type: ignore[arg-type]

    def _pop_item(self) -> Any:
        return heapq.heappop(self._items)  # type: ignore[arg-type]

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        super().__init__(sim, capacity)
        self._items: list = []  # heap, not deque

    # The heap-order counterpart of reading a FIFO store's ``items[0]``.
    def peek(self) -> Any:
        """Smallest stored item without removing it."""
        if not self._items:
            raise SimulationError("peek() on empty PriorityStore")
        return self._items[0]


class FilterStore(Store):
    """A store whose getters may demand items matching a predicate."""

    def get(self, predicate: Callable[[Any], bool] = lambda item: True):
        return _FilterGet(self, predicate)

    def _dispatch(self) -> None:
        self._admit_putters()
        progress = True
        while progress:
            progress = False
            for get in list(self._getters):
                for item in self._items:
                    if get.predicate(item):
                        self._items.remove(item)
                        self._getters.remove(get)
                        get.succeed(item)
                        progress = True
                        break
            if progress:
                self._admit_putters()
