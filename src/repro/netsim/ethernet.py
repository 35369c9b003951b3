"""Shared-medium Ethernet segment.

The paper's cluster is a single 10 Mb/s Ethernet LAN: one shared broadcast
medium that serializes all frames.  We model exactly that — a single
capacity-1 resource held for each frame's transmission time — because the
serialization is what makes centralized communication patterns (PVM's
manager) degrade with processor count, one of the effects behind
Figure 7.

Frames above the MTU are fragmented; each fragment re-arbitrates for the
medium, which lets short frames interleave with bulk transfers the way
real Ethernet does.
"""

from __future__ import annotations

import math

from ..des import Hold, Resource, Simulator
from .costs import CostModel

__all__ = ["EthernetSegment"]


class FrameHold(Hold):
    """One frame on the medium; ``then`` is the payload's next one."""

    __slots__ = ("segment", "payload", "then", "requested")

    def __init__(self, segment: "EthernetSegment", payload: int, then):
        Hold.__init__(
            self, segment._medium, segment.costs.wire_seconds(payload)
        )
        self.segment = segment
        self.payload = payload
        self.then = then

    def _done(self) -> None:
        """Account the carried frame; start the payload's next one."""
        segment = self.segment
        payload = self.payload
        segment.busy_seconds += self.seconds
        segment.bytes_carried += payload
        segment.frames_carried += 1
        metrics = self.sim.obs
        if metrics is not None:
            metrics.count("netsim.eth.frames")
            metrics.count("netsim.eth.bytes", payload)
            stall = self.start - self.requested
            if stall > 0:
                # Contention: time spent waiting for the shared medium
                # (not charged to the ledger — it overlaps other
                # senders' wire time).
                metrics.count("netsim.eth.stall_seconds", stall)
                metrics.observe("netsim.eth.stall", stall)
            metrics.span(
                segment.name, "frame", "wire", self.start, self.sim.now,
            )
        if self.then is not None:
            segment._arbitrate(self.then)


class EthernetSegment:
    """A single shared broadcast domain."""

    #: Maximum payload carried by one frame (classic Ethernet MTU).
    MTU = 1500

    def __init__(self, sim: Simulator, costs: CostModel, name: str = "lan0"):
        self.sim = sim
        self.costs = costs
        self.name = name
        self._medium = Resource(sim, capacity=1)
        #: Total bytes carried, for utilization reporting.
        self.bytes_carried: int = 0
        #: Total frames (fragments) carried.
        self.frames_carried: int = 0
        #: Accumulated medium-busy time.
        self.busy_seconds: float = 0.0

    def transmit(self, size_bytes: int) -> FrameHold:
        """Occupy the medium while sending a payload, one hold per
        fragment, each joining the back of the queue when the one
        before is done.  The returned event fires when the last has been
        received; the caller layers endpoint costs on top.
        """
        if size_bytes < 0:
            raise ValueError(f"negative frame size {size_bytes}")
        fragments = max(1, math.ceil(size_bytes / self.MTU))
        last = first = FrameHold(
            self, size_bytes - (fragments - 1) * self.MTU, None
        )
        for _ in range(fragments - 1):
            first = FrameHold(self, self.MTU, first)
        self._arbitrate(first)
        return last

    def _arbitrate(self, frame: FrameHold) -> None:
        frame.requested = self.sim.now
        self._medium.enqueue(frame)

    def __repr__(self) -> str:
        return (
            f"<EthernetSegment {self.name} frames={self.frames_carried} "
            f"bytes={self.bytes_carried}>"
        )
