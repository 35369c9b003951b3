"""Open-loop arrival processes on named RNG streams.

All three processes are pure functions of ``(config, rng)``: the same
stream state always produces the same arrival-time sequence, which is
what makes a whole service run replayable from one root seed.  The
non-homogeneous processes (bursty, diurnal) use Lewis thinning — a
homogeneous candidate stream at the peak rate, with each candidate
accepted with probability ``rate(t) / peak`` — so their *mean* offered
load equals ``rate_rps`` exactly, and the shape knobs only move traffic
around in time.

:func:`iter_arrival_times` is the streaming form — arrivals are drawn
on demand, one at a time, so an open-loop source holds O(1) memory no
matter how long the run (the scale-layer contract).  It consumes
``rng`` in exactly the order the old precomputed-list form did, so
traces are byte-identical; :func:`arrival_times` remains as the
materialised convenience wrapper.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

from .config import ServiceConfig

__all__ = ["iter_arrival_times"]

#: Bursty shape: on/off phase lengths and the on-phase rate over the
#: off-phase rate.
BURST_ON_S = 0.06
BURST_OFF_S = 0.06
BURST_FACTOR = 3.0
#: Diurnal shape: period and relative depth of the sinusoid.
DIURNAL_PERIOD_S = 0.3
DIURNAL_DEPTH = 0.8


def _homogeneous(rate: float, duration: float, rng) -> Iterator[float]:
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            return
        yield t


def _thinned(
    peak: float, rate_at: Callable[[float], float], duration: float, rng
) -> Iterator[float]:
    t = 0.0
    while True:
        t += rng.expovariate(peak)
        if t >= duration:
            return
        if rng.random() < rate_at(t) / peak:
            yield t


def iter_arrival_times(config: ServiceConfig, rng) -> Iterator[float]:
    """Arrival instants in ``[0, duration_s)``, ascending, on demand.

    ``rng`` is one named :class:`~repro.des.rng.RngRegistry` stream
    (conventionally ``"service.arrivals"``).  Each ``next()`` draws
    just enough randomness for one more arrival, in the same stream
    order as the precomputed form — an open-loop driver that consumes
    this lazily keeps O(1) arrival state.
    """
    rate = config.rate_rps
    duration = config.duration_s
    if config.arrivals == "poisson":
        return _homogeneous(rate, duration, rng)
    if config.arrivals == "bursty":
        on = BURST_ON_S
        off = BURST_OFF_S
        period = on + off
        # Mean-preserving on/off: rate_on = factor * rate_off, with the
        # time-average over one period equal to rate_rps.
        rate_off = rate * period / (BURST_FACTOR * on + off)
        rate_on = BURST_FACTOR * rate_off

        def burst_rate(t: float) -> float:
            return rate_on if (t % period) < on else rate_off

        return _thinned(rate_on, burst_rate, duration, rng)
    # diurnal: sinusoidal modulation, mean-preserving by construction.
    depth = DIURNAL_DEPTH
    period = DIURNAL_PERIOD_S
    peak = rate * (1.0 + depth)

    def diurnal_rate(t: float) -> float:
        return rate * (1.0 + depth * math.sin(2.0 * math.pi * t / period))

    return _thinned(peak, diurnal_rate, duration, rng)
