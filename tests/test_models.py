"""Naive reference models for the optimised structures.

Each model is written for obviousness, not speed; a Hypothesis property
drives the real structure and the model with the same operations and
compares everything observable.

The shared medium: :class:`~repro.netsim.ethernet.EthernetSegment` plans
its fragment round-robin arithmetically and tells the kernel only about
completions.  :func:`medium_model` is the queued medium it replaces: one
frame on the wire, FIFO grant, and every fragment re-arbitrating at the
back of the queue when the one before it is done.
"""

import dataclasses
import math
from collections import deque
from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Simulator
from repro.netsim.costs import DEFAULT_COSTS
from repro.netsim.ethernet import EthernetSegment

MTU = EthernetSegment.MTU
UNIT = 2.0 ** -20
#: Every instant is a whole number of UNITs under these costs, so sums
#: are exact and arrivals land exactly on fragment boundaries.
DYADIC = dataclasses.replace(
    DEFAULT_COSTS,
    bandwidth_bytes_per_s=2.0 ** 20,
    wire_latency_s=2.0 ** -10,
    endpoint_overhead_s=2.0 ** -11,
)
#: An endpoint overhead longer than a full frame: an arrival's event is
#: created before the boundary's, so arrivals go first.
SLOW_ENDPOINTS = dataclasses.replace(DYADIC, endpoint_overhead_s=2.0 ** -8)


def medium_model(costs, arrivals):
    """The queued medium.  ``arrivals`` are ``(created, at, size)``: a
    transmit requested at ``at`` by an event created at ``created``;
    events at one instant run in creation order, as in the kernel.
    Returns the frames ``(start, end, payload, requested)`` in wire
    order and each transmit's completion time."""
    heap = []
    for index, (created, at, size) in enumerate(arrivals):
        n = max(1, math.ceil(size / MTU))
        payloads = [MTU] * (n - 1) + [size - (n - 1) * MTU]
        heappush(heap, (at, created, index, payloads))
    seq = len(arrivals)
    queue, wire, frames, done = deque(), None, [], {}
    while heap:
        now, _created, index, payloads = heappop(heap)
        if payloads is not None:  # a transmit joins the back
            queue.append((index, payloads, now))
        else:  # the frame on the wire ends
            index, payloads, requested, start = wire
            frames.append((start, now, payloads[0], requested))
            wire = None
            if len(payloads) > 1:
                queue.append((index, payloads[1:], now))
            else:
                done[index] = now
        if wire is None and queue:
            index, payloads, requested = queue.popleft()
            wire = (index, payloads, requested, now)
            end = now + costs.wire_seconds(payloads[0])
            heappush(heap, (end, now, seq, None))
            seq += 1
    return frames, done


def counters(costs, frames):
    """``(busy_seconds, frames_carried, bytes_carried)`` after ``frames``."""
    busy = 0.0
    for frame in frames:
        busy += costs.wire_seconds(frame[2])
    return busy, len(frames), sum(frame[2] for frame in frames)


def run_segment(costs, transmits, reads=()):
    """Drive a real segment: each transmit ``(created, size)`` is made
    the way a NIC pump makes it, ``endpoint_overhead_s`` after an event
    created at ``created``; each read samples the three counters."""
    sim = Simulator()
    frames, done, seen = [], {}, []

    class Recording(EthernetSegment):
        def _carry(self, payload, seconds, requested):
            frames.append((self._start, self._end, payload, requested))
            super()._carry(payload, seconds, requested)

    segment = Recording(sim, costs)

    def sender(index, created, size):
        yield sim.timeout(created)
        yield sim.timeout(costs.endpoint_overhead_s)
        yield segment.transmit(size)
        done[index] = sim.now

    def reader(at):
        yield sim.timeout(at)
        seen.append((
            segment.busy_seconds,
            segment.frames_carried,
            segment.bytes_carried,
        ))

    for index, (created, size) in enumerate(transmits):
        sim.process(sender(index, created, size))
    for at in reads:
        sim.process(reader(at))
    sim.run()
    return segment, frames, done, seen


def model_arrivals(costs, transmits):
    return [
        (created, created + costs.endpoint_overhead_s, size)
        for created, size in transmits
    ]


def created_for(costs, at):
    """An instant ``c`` with ``c + endpoint_overhead_s == at``, if the
    float grid has one near ``at - endpoint_overhead_s``."""
    guess = at - costs.endpoint_overhead_s
    for candidate in (
        guess, math.nextafter(guess, math.inf), math.nextafter(guess, 0.0)
    ):
        if candidate >= 0 and candidate + costs.endpoint_overhead_s == at:
            return candidate
    return None


sizes = st.integers(0, 6 * MTU)


@settings(max_examples=250, deadline=None)
@given(
    costs=st.sampled_from([DEFAULT_COSTS, DYADIC, SLOW_ENDPOINTS]),
    base=st.lists(
        st.tuples(st.integers(0, 40_000), sizes), min_size=1, max_size=8
    ),
    ties=st.lists(st.tuples(st.integers(0, 10 ** 6), sizes), max_size=3),
    picks=st.lists(st.integers(0, 10 ** 6), max_size=3),
)
def test_segment_matches_the_queued_model(costs, base, ties, picks):
    transmits = [(units * UNIT, size) for units, size in base]
    # Arrivals exactly on a boundary of the plan so far (a frame that
    # ends before an arrival is unaffected by it).
    for pick, size in ties:
        frames, _ = medium_model(costs, model_arrivals(costs, transmits))
        created = created_for(costs, frames[pick % len(frames)][1])
        if created is not None:
            transmits.append((created, size))
    want_frames, want_done = medium_model(
        costs, model_arrivals(costs, transmits)
    )
    # Counters read mid-frame, between two boundaries.
    reads = [
        (want_frames[p % len(want_frames)][0]
         + want_frames[p % len(want_frames)][1]) / 2
        for p in picks
    ]
    segment, frames, done, seen = run_segment(costs, transmits, reads)
    assert frames == want_frames
    assert done == want_done
    assert (
        segment.busy_seconds, segment.frames_carried, segment.bytes_carried
    ) == counters(costs, want_frames)
    assert seen == [
        counters(costs, [f for f in want_frames if f[1] <= at])
        for at in sorted(reads)
    ]


def test_counters_are_exact_mid_transfer():
    costs = DEFAULT_COSTS
    transmits = [(0.0, 6 * MTU), (0.0, 4000), (0.001, 64)]
    want_frames, _ = medium_model(costs, model_arrivals(costs, transmits))
    middle = (want_frames[4][0] + want_frames[4][1]) / 2
    segment, _frames, _done, seen = run_segment(costs, transmits, [middle])
    assert seen == [counters(costs, want_frames[:4])]
    assert segment.frames_carried == len(want_frames) == 10


def test_boundary_tie_rule_follows_the_creation_instants():
    """An arrival exactly on a fragment boundary: behind the re-enqueued
    fragment when the boundary's event is the older (the default costs),
    ahead of it when the arrival's is."""
    for costs, short_goes in ((DYADIC, 2), (SLOW_ENDPOINTS, 1)):
        boundary = costs.endpoint_overhead_s + costs.wire_seconds(MTU)
        created = created_for(costs, boundary)
        transmits = [(0.0, 3 * MTU), (created, 64)]
        _segment, frames, _done, _seen = run_segment(costs, transmits)
        assert [f[2] for f in frames].index(64) == short_goes
        assert frames == medium_model(
            costs, model_arrivals(costs, transmits)
        )[0]
