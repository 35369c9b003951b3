"""Resilience: detection-driven recovery, supervision, invariants.

The fault layer (``repro.faults``) gave the reproduction failures and
*oracle* recovery — the instant a host crashed, every survivor somehow
knew.  This package removes the oracle and replaces it with the
machinery a real distributed system needs:

* **failure detectors** (:mod:`~repro.resilience.detectors`) —
  heartbeat and phi-accrual detectors per daemon, with tunable
  suspicion thresholds, turning crashes into *detected* failures that
  drive the existing MESSENGERS re-homing/re-dispatch and the PVM
  notification machinery through
  :meth:`~repro.netsim.transport.Network.announce_failure`;
* **supervision** (:mod:`~repro.resilience.supervision`) — one-for-one
  / give-up-after-N / escalate restart policies applied to announced
  failures, plus credit-based transport backpressure (bounded
  retransmit state, typed :class:`~repro.des.SimOverloadError`);
* **invariants** (:mod:`~repro.resilience.invariants`) — GVT
  monotonicity, checkpoint snapshot integrity, and the cost-ledger
  accounting identity, checked inside
  the DES and failing fast with a minimal event-trace excerpt;
* **schedule search** (:mod:`~repro.resilience.search`) — bounded DFS
  plus seeded random restarts over fault schedules, shrinking any
  violation to a minimal :class:`~repro.faults.FaultPlan` reproducer.

One :class:`ResiliencePolicy` describes what to arm; a
:class:`ResilienceSuite` arms it on a live network.  The empty policy
arms *nothing* — no listeners, no processes, no flow control — which is
what keeps the idle overhead at zero (pinned by
``benchmarks/test_resilience_overhead.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..des.rng import RngRegistry
from .detectors import FailureDetector, HeartbeatDetector, PhiAccrualDetector
from .invariants import Invariant, InvariantMonitor, InvariantViolation
from .search import ScheduleSearcher
from .supervision import RestartPolicy, SupervisionEscalation, Supervisor

__all__ = [
    "Invariant",
    "InvariantMonitor",
    "InvariantViolation",
    "ResiliencePolicy",
    "ResilienceSuite",
    "ScheduleSearcher",
    "SupervisionEscalation",
]

#: Detector kinds :class:`ResiliencePolicy` understands.
DETECTORS = ("heartbeat", "phi")


@dataclass(frozen=True)
class ResiliencePolicy:
    """What to arm on a cluster.  Every default means "arm nothing".

    ``detector`` switches crash announcements from oracle mode to
    detection mode: ``"heartbeat"`` (fixed timeout, suspect after
    ``heartbeat_misses`` silent intervals) or ``"phi"`` (phi-accrual
    with ``phi_threshold``).  ``supervision`` applies a
    :class:`RestartPolicy` to announced failures.  ``flow_credits``
    bounds every reliable channel's unacked packets (overflow raises
    :class:`~repro.des.SimOverloadError`).  Invariants are added to the
    armed suite with :meth:`ResilienceSuite.add_invariant`.
    """

    detector: Optional[str] = None
    heartbeat_misses: int = 3
    phi_threshold: float = 8.0
    supervision: Optional[RestartPolicy] = None
    flow_credits: Optional[int] = None

    def __post_init__(self):
        if self.detector is not None and self.detector not in DETECTORS:
            raise ValueError(
                f"unknown detector {self.detector!r} "
                f"(choose from {', '.join(DETECTORS)})"
            )

    @property
    def empty(self) -> bool:
        """True when arming this policy would change nothing."""
        return (
            self.detector is None
            and self.supervision is None
            and self.flow_credits is None
        )


class ResilienceSuite:
    """A :class:`ResiliencePolicy` armed on one live network.

    Arms exactly what the policy asks for — an empty policy arms
    nothing at all (no listeners, no processes, no flow control), so an
    idle suite costs nothing.  The suite also keeps a small ring of
    recent resilience events (suspicions, restarts, announcements) that
    :class:`InvariantViolation` excerpts for fail-fast diagnosis, and
    aggregates every component's statistics in :meth:`stats`.
    """

    def __init__(self, network, policy: ResiliencePolicy, seed: int = 0,
                 rng: Optional[RngRegistry] = None):
        self.network = network
        self.sim = network.sim
        self.policy = policy
        self.notes: deque = deque(maxlen=64)
        self.detector: Optional[FailureDetector] = None
        self.supervisor: Optional[Supervisor] = None
        self.monitor: Optional[InvariantMonitor] = None
        self._observing = False
        rng = rng if rng is not None else RngRegistry(seed)

        if policy.flow_credits is not None:
            network.set_flow_control(policy.flow_credits)
        if policy.detector == "heartbeat":
            self._observe()
            self.detector = HeartbeatDetector(
                network, policy.heartbeat_misses, rng, suite=self,
            )
        elif policy.detector == "phi":
            self._observe()
            self.detector = PhiAccrualDetector(
                network, policy.phi_threshold, rng, suite=self,
            )
        if policy.supervision is not None:
            self._observe()
            self.supervisor = Supervisor(
                network, policy.supervision, suite=self
            )

    # -- the note ring -----------------------------------------------------

    def _observe(self) -> None:
        """Subscribe the note ring to lifecycle events (idempotent)."""
        if self._observing:
            return
        self._observing = True
        self.network.add_crash_listener(
            lambda host, lost: self.note(
                "crash", host=host.name, lost_packets=len(lost)
            )
        )
        self.network.add_failure_listener(
            lambda host: self.note("failure_announced", host=host.name)
        )
        self.network.add_restart_listener(
            lambda host: self.note("restart", host=host.name)
        )

    def note(self, kind: str, **args) -> None:
        """Record one resilience event (bounded ring, oldest dropped)."""
        self.notes.append((self.sim.now, kind, args))

    def recent_notes(self, limit: int = 10) -> list:
        """The newest ``limit`` notes, oldest first."""
        return list(self.notes)[-limit:]

    # -- invariants --------------------------------------------------------

    def add_invariant(self, invariant: Invariant) -> Invariant:
        """Arm ``invariant``; starts the in-run monitor on first use."""
        if self.monitor is None:
            self._observe()
            self.monitor = InvariantMonitor(self)
        return self.monitor.add(invariant)

    def check_final(self) -> None:
        """End-of-run invariant sweep; raises on the first violation."""
        if self.monitor is not None:
            self.monitor.sweep(final=True)

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        """JSON-friendly statistics from every armed component."""
        out: dict = {"empty": self.policy.empty}
        if self.detector is not None:
            out["detector"] = self.policy.detector
            out.update(self.detector.stats())
            out["undetected_crashes"] = self.network.unannounced_crashes
        if self.supervisor is not None:
            out["supervision"] = self.supervisor.stats()
        if self.policy.flow_credits is not None:
            out["flow_credits"] = self.policy.flow_credits
            out["overloads"] = self.network.overloads
        if self.monitor is not None:
            out["invariants"] = [
                inv.name for inv in self.monitor.invariants
            ]
            out["invariant_checks"] = self.monitor.checks_run
        return out

    def __repr__(self) -> str:
        armed = [
            name for name, on in (
                ("detector", self.detector is not None),
                ("supervision", self.supervisor is not None),
                ("flow-control", self.policy.flow_credits is not None),
                ("invariants", self.monitor is not None),
            ) if on
        ]
        return f"<ResilienceSuite armed=[{', '.join(armed) or '-'}]>"
