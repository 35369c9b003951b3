"""Shared-medium Ethernet segment.

The paper's cluster is one 10 Mb/s Ethernet LAN whose shared medium
serializes all frames, which is what makes centralized patterns (PVM's
manager) degrade with processor count (Figure 7).  Frames above the MTU
are fragmented and each fragment re-arbitrates at the back of the queue,
so short frames interleave with bulk transfers as on real Ethernet.

The segment plans that round-robin itself, in a FIFO ring of transmits,
each fragment starting where the previous frame ended (the float sums a
queue of per-fragment holds makes), and accounts frames as it settles.
The kernel sees one completion per transmit, scheduled when its last
fragment gets the medium, plus a wake where that grant falls on a
boundary no completion or arrival marks.

Tie rule: an arrival exactly on a fragment boundary goes behind the
fragment re-enqueued there iff the boundary's event, created at
``t - wire_seconds(MTU)``, is older than the arriving NIC pump's
overhead timeout, created at ``t - endpoint_overhead_s``; with the
default costs (2.2 ms against 0.4 ms) the boundary goes first.
"""

from __future__ import annotations

import math
from collections import deque

from ..des import Event, Simulator
from ..des.core import NORMAL
from ..des.resources import requeue_if_due
from .costs import CostModel

__all__ = ["EthernetSegment"]


class FrameHold(Event):
    """One transmit; fires once its last fragment is carried.  ``left``
    counts its fragments not yet carried, ``payload`` is the last one's
    size, ``requested`` when its next fragment joined the queue."""

    __slots__ = ("payload", "left", "requested", "_cbs")

    def __init__(self, segment: "EthernetSegment", payload: int, left: int):
        Event.__init__(self, segment.sim)
        self.callbacks = self._cbs = [segment._finish]
        self.payload = payload
        self.left = left
        self.requested = segment.sim._now


class EthernetSegment:
    """A single shared broadcast domain."""

    #: Maximum payload carried by one frame (classic Ethernet MTU).
    MTU = 1500

    def __init__(self, sim: Simulator, costs: CostModel, name: str = "lan0"):
        self.sim = sim
        self.costs = costs
        self.name = name
        #: Transmits on the medium; the head's is on ``[_start, _end)``.
        self._ring: deque = deque()
        self._start = self._end = 0.0
        self._mtu_s = costs.wire_seconds(self.MTU)
        # The tie rule: the earlier-created event goes first.
        self._boundary_first = self._mtu_s > costs.endpoint_overhead_s
        self._wakes: set = set()  # instants with a wake queued
        self._busy = 0.0
        self._frames = self._bytes = 0

    def _settled(self) -> "EthernetSegment":
        self._settle(self._boundary_first)
        return self

    #: Medium-busy seconds, frames and bytes carried, as of now.
    busy_seconds = property(lambda self: self._settled()._busy)
    frames_carried = property(lambda self: self._settled()._frames)
    bytes_carried = property(lambda self: self._settled()._bytes)

    def transmit(self, size_bytes: int) -> FrameHold:
        """Carry a payload, one fragment at a time, each joining the
        back of the queue when the one before is done.  The returned
        event fires when the last has been received; the caller layers
        endpoint costs on top.
        """
        if size_bytes < 0:
            raise ValueError(f"negative frame size {size_bytes}")
        fragments = max(1, math.ceil(size_bytes / self.MTU))
        train = FrameHold(
            self, size_bytes - (fragments - 1) * self.MTU, fragments
        )
        if self._ring:
            self._settle(self._boundary_first)
        else:
            self._begin(train, self.sim._now)
        self._ring.append(train)
        self._plan()
        return train

    def _begin(self, train: FrameHold, start: float) -> None:
        """Put ``train``'s next fragment on the wire at ``start``; a
        last one is granted now, and its completion scheduled."""
        self._start = start
        if train.left > 1:
            self._end = start + self._mtu_s
            return
        seconds = self.costs.wire_seconds(train.payload)
        train._ok = True
        train._value = None
        self.sim.schedule(train, seconds)
        self._end = start + seconds

    def _carry(self, payload: int, seconds: float, requested: float) -> None:
        """Account the frame on the wire."""
        self._busy += seconds
        self._bytes += payload
        self._frames += 1
        metrics = self.sim.obs
        if metrics is not None:
            metrics.count("netsim.eth.frames")
            metrics.count("netsim.eth.bytes", payload)
            stall = self._start - requested
            if stall > 0:  # contention; overlaps other senders' wire time
                metrics.count("netsim.eth.stall_seconds", stall)
                metrics.observe("netsim.eth.stall", stall)
            metrics.span(self.name, "frame", "wire", self._start, self._end)

    def _settle(self, inclusive: bool) -> None:
        """Carry every non-last fragment that ended before now (or at
        now, if ``inclusive``), rotating its transmit to the back."""
        ring = self._ring
        now = self.sim._now
        while ring:
            train, end = ring[0], self._end
            if train.left == 1 or end > now or (end == now and not inclusive):
                return
            self._carry(self.MTU, self._mtu_s, train.requested)
            train.left -= 1
            train.requested = end
            ring.rotate(-1)
            self._begin(ring[0], end)

    def _plan(self) -> None:
        """With a non-last fragment on the wire, queue a wake at the next
        last-fragment grant; every frame before it is a full MTU one."""
        ring = self._ring
        if not ring or ring[0].left == 1:
            return  # idle, or a completion is due next
        # After the wire frame the round-robin serves ring[1:], then the
        # head: a transmit with c fragments at position p of that order
        # sends its last as frame (c - 1) * k + p.
        k = len(ring)
        frames = (ring[0].left - 1) * k - 1
        for p in range(k - 1):
            frames = min(frames, (ring[p + 1].left - 1) * k + p)
        at = self._end
        for _ in range(frames):
            at += self._mtu_s
        if at in self._wakes:
            return
        self._wakes.add(at)
        wake = Event(self.sim)
        wake._ok = True
        wake.callbacks = [self._wake]
        # When arrivals go first, behind every arrival due then.
        priority = NORMAL if self._boundary_first else NORMAL + 1
        self.sim.schedule(wake, priority=priority, at=at)

    def _wake(self, wake: Event) -> None:
        self._wakes.discard(self.sim._now)
        self._settle(True)
        self._plan()

    def _finish(self, train: FrameHold) -> None:
        """First callback of every transmit: carry its last fragment and
        hand the medium on."""
        seconds = self.costs.wire_seconds(train.payload)
        self._carry(train.payload, seconds, train.requested)
        ring = self._ring
        ring.popleft()
        if ring:
            self._begin(ring[0], self.sim._now)
            self._plan()
        requeue_if_due(train)

    def __repr__(self) -> str:
        return (
            f"<EthernetSegment {self.name} frames={self.frames_carried} "
            f"bytes={self.bytes_carried}>"
        )
