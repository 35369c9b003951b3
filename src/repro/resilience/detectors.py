"""Failure detectors: turning crashes into *detected* failures.

The fault layer's oracle mode announces a crash in the same call stack
that caused it — recovery is driven by perfect, instantaneous knowledge
no real system has.  The detectors here close that gap: each daemon is
monitored through periodic heartbeats (modeled arrivals with jittered
latency, not real packets — a detector must not perturb the workload it
watches), silence is turned into *suspicion*, and suspicion calls
:meth:`~repro.netsim.transport.Network.announce_failure`, which runs the
recovery listeners exactly as the oracle would — just later.

Two classical detectors are provided:

* :class:`HeartbeatDetector` — suspect after ``misses`` consecutive
  missed heartbeat intervals (the fixed-timeout detector);
* :class:`PhiAccrualDetector` — Hayashibara et al.'s phi-accrual
  detector: the suspicion level ``phi = -log10(P(a beat could still be
  this late))`` is computed from the observed inter-arrival history, so
  the threshold adapts to the link's actual jitter.  A
  ``MAX_SILENCE_S`` cap bounds the worst case.

Both run on *background* (daemon) timeouts, so an armed detector never
keeps the simulation alive by itself; the transport's detection-mode
keep-alive (one foreground timeout per crash, ``horizon_s`` long)
guarantees the simulation cannot drain before the detector has had its
chance.  ``horizon_s`` is each detector's worst-case detection latency.

False suspicions are harmless by construction — announcing a live host
is a no-op — but they are counted, because a detector tuned so tight it
cries wolf is exactly the trade-off the suspicion threshold sweeps in
``BENCH_resilience.json`` measure.
"""

from __future__ import annotations

import math
from collections import deque

__all__ = ["FailureDetector", "HeartbeatDetector", "PhiAccrualDetector"]

#: RNG stream for modeled heartbeat-arrival jitter.
HEARTBEAT_STREAM = "resilience.heartbeat"
#: Period of the modeled heartbeats every detector watches.
HEARTBEAT_INTERVAL_S = 0.02
#: The phi-accrual detector's cap on the silence any history excuses.
MAX_SILENCE_S = 0.25


class FailureDetector:
    """Base class: per-host beat bookkeeping + suspicion plumbing.

    Subclasses define :attr:`horizon_s` (worst-case detection latency)
    and :meth:`_suspicious` (is this host's silence long enough?).
    Construction arms the network's detection mode and starts the
    monitor loop; nothing else in the system needs to know a detector
    exists.
    """

    def __init__(self, network, rng, suite=None):
        self.network = network
        self.sim = network.sim
        self.suite = suite
        self._rng = rng.stream(HEARTBEAT_STREAM)
        #: host -> arrival time of its most recent (modeled) heartbeat.
        self._last_beat: dict[str, float] = {}
        #: host -> recent inter-arrival gaps (phi-accrual history).
        self._history: dict[str, deque] = {}
        self._suspected: set[str] = set()
        #: Exact crash times, recorded for latency accounting only —
        #: the *suspicion* logic never reads them.
        self._crash_times: dict[str, float] = {}
        self.suspicions = 0
        self.false_suspicions = 0
        self.detection_latencies: list[float] = []

        network.add_crash_listener(self._record_crash)
        network.add_restart_listener(self._on_restart)
        network.enable_detection(self.horizon_s)
        # Baseline beat for every host at arm time: a host that crashes
        # before the first monitor tick must still accrue silence, or it
        # would never be suspected at all.
        for name in network.host_names:
            self._last_beat[name] = self.sim.now
        self.sim.process(self._monitor(), daemon=True)

    # -- subclass surface --------------------------------------------------

    @property
    def horizon_s(self) -> float:
        """Worst-case detection latency (transport keep-alive bound)."""
        raise NotImplementedError

    def _suspicious(self, name: str, silence_s: float) -> bool:
        """Has ``name`` been silent long enough to suspect?"""
        raise NotImplementedError

    # -- bookkeeping -------------------------------------------------------

    def _record_crash(self, host, lost_packets) -> None:
        self._crash_times.setdefault(host.name, self.sim.now)

    def _on_restart(self, host) -> None:
        # The rebooted daemon beats again: clear its silence history so
        # the pre-crash gap does not poison the inter-arrival stats.
        name = host.name
        self._suspected.discard(name)
        self._crash_times.pop(name, None)
        self._last_beat[name] = self.sim.now
        self._history.pop(name, None)

    def _monitor(self):
        """Daemon loop: evaluate silence, then record fresh beats.

        Evaluation happens *before* recording, so a crashed host's
        silence accrues from its last real beat.  Live hosts' beats
        arrive with jittered latency drawn from the
        ``resilience.heartbeat`` stream — modeled arrivals, not packets,
        so the detector adds zero load to the wire it monitors.
        """
        interval = HEARTBEAT_INTERVAL_S
        jitter = 0.25 * interval
        while True:
            yield self.sim.timeout(interval, daemon=True)
            now = self.sim.now
            for name in self.network.host_names:
                host = self.network.host(name)
                last = self._last_beat.get(name)
                if last is not None and name not in self._suspected:
                    silence = now - last
                    if self._suspicious(name, silence):
                        self._suspect(name, host)
                if not host.crashed:
                    arrival = now - jitter * self._rng.random()
                    if last is not None:
                        history = self._history.setdefault(
                            name, deque(maxlen=32)
                        )
                        history.append(arrival - last)
                    self._last_beat[name] = arrival

    def _suspect(self, name: str, host) -> None:
        self._suspected.add(name)
        self.suspicions += 1
        announced = self.network.announce_failure(name)
        if announced:
            crash_time = self._crash_times.get(name, self.sim.now)
            self.detection_latencies.append(self.sim.now - crash_time)
        elif not host.crashed:
            # Cried wolf: the host is alive (announce was a no-op).
            # Give it a clean slate so one jitter spike does not turn
            # into a suspicion per tick forever.
            self.false_suspicions += 1
            self._suspected.discard(name)
            self._last_beat[name] = self.sim.now
            self._history.pop(name, None)
        if self.suite is not None:
            self.suite.note(
                "suspect", host=name, announced=announced,
                false=not host.crashed,
            )

    def stats(self) -> dict:
        latencies = self.detection_latencies
        return {
            "suspicions": self.suspicions,
            "false_suspicions": self.false_suspicions,
            "detections": len(latencies),
            "detection_latency_mean_s": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "detection_latency_max_s": max(latencies, default=0.0),
            "horizon_s": self.horizon_s,
        }

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} interval={HEARTBEAT_INTERVAL_S:g}s "
            f"suspected={sorted(self._suspected)}>"
        )


class HeartbeatDetector(FailureDetector):
    """Fixed-timeout detector: suspect after ``misses`` silent intervals.

    The paper's era default: simple, predictable, and exactly as good
    as its timeout — ``misses`` low means fast detection and false
    suspicions under jitter; high means slow recovery.  That trade-off
    is the x-axis of the detection-latency sweep in
    ``BENCH_resilience.json``.
    """

    def __init__(self, network, misses: int, rng, suite=None):
        if misses < 1:
            raise ValueError(f"need at least one miss, got {misses}")
        self.misses = misses
        super().__init__(network, rng, suite=suite)

    @property
    def horizon_s(self) -> float:
        # misses silent intervals + one tick granularity + jitter slack.
        return HEARTBEAT_INTERVAL_S * (self.misses + 2)

    def _suspicious(self, name: str, silence_s: float) -> bool:
        return silence_s > self.misses * HEARTBEAT_INTERVAL_S


class PhiAccrualDetector(FailureDetector):
    """Phi-accrual detector (Hayashibara et al., SRDS 2004).

    ``phi(silence) = -log10(1 - F(silence))`` where ``F`` is a normal
    fit of the observed inter-arrival distribution; suspicion fires at
    ``phi >= threshold``.  Adaptive: a jittery link automatically earns
    a longer effective timeout.  ``MAX_SILENCE_S`` caps the silence a
    pathological history could excuse, which is what makes
    :attr:`horizon_s` finite.
    """

    #: Minimum samples before the normal fit is trusted.
    MIN_SAMPLES = 4

    def __init__(self, network, threshold: float, rng, suite=None):
        if threshold <= 0:
            raise ValueError(f"phi threshold must be positive, got "
                             f"{threshold}")
        self.threshold = threshold
        super().__init__(network, rng, suite=suite)

    @property
    def horizon_s(self) -> float:
        return MAX_SILENCE_S + 2 * HEARTBEAT_INTERVAL_S

    def phi(self, name: str, silence_s: float) -> float:
        """Current suspicion level for ``name`` after ``silence_s``."""
        history = self._history.get(name)
        if history is None or len(history) < self.MIN_SAMPLES:
            # Too little history for a fit: fall back to the cap alone.
            return float("inf") if silence_s >= MAX_SILENCE_S else 0.0
        n = len(history)
        mean = sum(history) / n
        variance = sum((x - mean) ** 2 for x in history) / n
        # Floor the spread so a freakishly regular history cannot make
        # the detector hair-triggered.
        sigma = max(math.sqrt(variance), 0.05 * HEARTBEAT_INTERVAL_S)
        z = (silence_s - mean) / sigma
        p_later = 0.5 * math.erfc(z / math.sqrt(2.0))
        if p_later <= 0.0:
            return float("inf")
        return -math.log10(p_later)

    def _suspicious(self, name: str, silence_s: float) -> bool:
        if silence_s >= MAX_SILENCE_S:
            return True
        return self.phi(name, silence_s) >= self.threshold
