"""Invariant checkers: properties a faulty run must never violate.

Fault injection answers "does the system survive?"; invariants answer
the sharper question "did it survive *correctly*?".  Each
:class:`Invariant` states one property of the reproduction that must
hold at every observation point, fault or no fault:

* :class:`GvtMonotonic` — global virtual time never decreases (the
  conservative engine's central guarantee, §2.2);
* :class:`CheckpointIntegrity` — a hop-boundary checkpoint is a
  *snapshot*: once captured it must never change, or replay-from-
  checkpoint would resurrect a different Messenger than the one that
  was dispatched;
* :class:`LedgerIdentity` — the cost ledger cannot attribute more
  virtual seconds than physically exist (elapsed time x timelines),
  the accounting identity ``repro.obs.cost_breakdown`` rests on.

An :class:`InvariantMonitor` runs the checks inside the DES on
background timeouts and fails *fast*: the first violation raises
:class:`InvariantViolation` out of the simulation loop, carrying a
minimal excerpt of recent events (the suite's note ring) so the failure
is diagnosable without replaying the run.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Callable, Optional

from ..des import SimulationError

__all__ = [
    "CheckpointIntegrity",
    "GvtMonotonic",
    "Invariant",
    "InvariantMonitor",
    "InvariantViolation",
    "LedgerIdentity",
]


class InvariantViolation(SimulationError):
    """An invariant failed; carries a recent-event excerpt for triage."""

    def __init__(self, invariant: str, message: str, t: float, excerpt=()):
        self.invariant = invariant
        self.message = message
        self.t = t
        self.excerpt = list(excerpt)
        lines = [f"invariant {invariant!r} violated at t={t:.6f}: {message}"]
        if self.excerpt:
            lines.append("recent events:")
            lines.extend(
                f"  t={when:.6f} {kind} {args}"
                for when, kind, args in self.excerpt
            )
        super().__init__("\n".join(lines))


class Invariant:
    """One checkable property.  Subclasses override :meth:`check`
    (periodic, during the run) and optionally :meth:`check_final`
    (end-of-run, where liveness-flavoured properties become checkable).

    Both return ``None`` when the property holds, or a one-line
    description of the violation.
    """

    name = "invariant"

    def check(self, now: float) -> Optional[str]:
        return None

    def check_final(self, now: float) -> Optional[str]:
        return self.check(now)


class GvtMonotonic(Invariant):
    """Global virtual time never moves backwards."""

    name = "gvt-monotonic"

    def __init__(self, gvt_fn: Callable[[], float]):
        self._gvt_fn = gvt_fn
        self._last: Optional[float] = None

    def check(self, now: float) -> Optional[str]:
        value = self._gvt_fn()
        if self._last is not None and value < self._last - 1e-12:
            return f"GVT moved backwards: {self._last} -> {value}"
        self._last = value
        return None


def _snapshot_digest(clone) -> str:
    """Content digest of a checkpointed Messenger's mutable state."""
    try:
        blob = pickle.dumps((clone.vt, clone.hops, clone.variables))
    except Exception:
        blob = repr(
            (clone.vt, clone.hops, sorted(clone.variables))
        ).encode("utf-8")
    return hashlib.sha1(blob).hexdigest()


class CheckpointIntegrity(Invariant):
    """Hop-boundary checkpoints are immutable snapshots.

    A checkpoint that changes after capture means live state aliased
    into the snapshot (a missing deep copy): replaying it would not
    reproduce the dispatched Messenger, silently breaking the
    bit-identical-recovery guarantee.  Each checkpoint's digest is
    recorded on first sight and must match on every later observation
    of the *same* checkpoint object.
    """

    name = "checkpoint-integrity"

    def __init__(self, system):
        self._system = system
        #: id(checkpoint) -> (messenger id, digest at first sight).
        self._digests: dict[int, tuple] = {}

    def check(self, now: float) -> Optional[str]:
        seen: set[int] = set()
        for mid, checkpoint in self._system._checkpoints.items():
            node = checkpoint
            while node is not None:
                key = id(node)
                seen.add(key)
                digest = _snapshot_digest(node.clone)
                recorded = self._digests.get(key)
                if recorded is None:
                    self._digests[key] = (mid, digest)
                elif recorded[1] != digest:
                    return (
                        f"checkpoint for messenger {mid} mutated after "
                        "capture (snapshot aliases live state)"
                    )
                node = node.prev
        # Retired checkpoints can never be observed again; forget them.
        for key in list(self._digests):
            if key not in seen:
                del self._digests[key]
        return None


class LedgerIdentity(Invariant):
    """The cost ledger never attributes more time than exists.

    With ``n_tracks`` timelines (hosts + the wire), at most
    ``now * n_tracks`` virtual seconds have physically elapsed; the sum
    of all per-category charges must stay within that, or some layer is
    double-charging (the identity ``cost_breakdown`` divides by).
    """

    name = "ledger-identity"

    def __init__(self, metrics, n_tracks: int):
        self.metrics = metrics
        self.n_tracks = n_tracks

    def check(self, now: float) -> Optional[str]:
        total = self.metrics.ledger_total()
        capacity = now * self.n_tracks
        if total > capacity + 1e-9:
            return (
                f"ledger attributes {total:.9f}s but only "
                f"{capacity:.9f}s exist ({self.n_tracks} timelines x "
                f"{now:.9f}s elapsed)"
            )
        return None


#: Period of the monitor's in-run invariant sweeps.
INVARIANT_INTERVAL_S = 0.05


class InvariantMonitor:
    """Runs invariants inside the DES, failing fast on first violation.

    The periodic sweep (every ``INVARIANT_INTERVAL_S``) rides background
    timeouts, so an armed monitor never keeps the simulation alive;
    :meth:`check_final` is for the harness to call after the run, where
    end-state properties (no lost work) become decidable.
    """

    def __init__(self, suite):
        self.suite = suite
        self.sim = suite.sim
        self.invariants: list[Invariant] = []
        self.checks_run = 0
        self.sim.process(self._loop(), daemon=True)

    def add(self, invariant: Invariant) -> Invariant:
        self.invariants.append(invariant)
        return invariant

    def _loop(self):
        while True:
            yield self.sim.timeout(INVARIANT_INTERVAL_S, daemon=True)
            self.sweep(final=False)

    def sweep(self, final: bool) -> None:
        now = self.sim.now
        for invariant in self.invariants:
            self.checks_run += 1
            problem = (
                invariant.check_final(now) if final
                else invariant.check(now)
            )
            if problem is not None:
                raise InvariantViolation(
                    invariant.name, problem, now,
                    excerpt=self.suite.recent_notes(),
                )
