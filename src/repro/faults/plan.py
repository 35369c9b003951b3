"""Declarative, seed-reproducible fault plans.

A :class:`FaultPlan` is a pure description — *what* can go wrong and
*when* — with no reference to a simulator, network, or RNG.  The same
plan object can therefore drive a MESSENGERS run and a PVM run (or two
repetitions of either) and, combined with one root seed, reproduce the
exact same fault sequence each time.  The half that *applies* a plan to
a live :class:`~repro.netsim.transport.Network` is
:class:`~repro.faults.injector.FaultInjector`.

Two kinds of trouble are described:

* **probabilistic packet perturbation** — per-link (or global) drop,
  duplicate, and corrupt rates, sampled per packet from dedicated
  :class:`~repro.des.rng.RngRegistry` streams;
* **timed events** — host crash/restart, link partition/heal, and
  daemon hang, applied at fixed virtual times.

The builder methods all return ``self`` so plans read fluently::

    plan = (FaultPlan()
            .drop(0.05)                      # 5% loss on every link
            .corrupt(0.01, src="host1")      # bad NIC on host1
            .crash("host2", at=0.5)
            .restart("host2", at=0.9))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["FaultEvent", "FaultPlan", "FaultPlanError"]

#: Timed-event kinds understood by the injector.
CRASH = "crash"
RESTART = "restart"
PARTITION = "partition"
HEAL = "heal"
HANG = "hang"

_KINDS = (CRASH, RESTART, PARTITION, HEAL, HANG)


class FaultPlanError(ValueError):
    """A fault plan is malformed for the cluster it is being armed on.

    Raised at *arm* time (``FaultInjector`` construction), not at build
    time: a plan is a pure description and may legitimately mention
    hosts that only exist in some clusters.  Rate and per-event range
    errors are still raised eagerly by the builder as ``ValueError``.
    """


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault: ``kind`` applied at virtual time ``at``.

    ``host`` names the victim (or one partition endpoint); ``peer`` is
    the second partition endpoint; ``duration`` is how long a ``hang``
    seizes the host's CPU.
    """

    at: float
    kind: str
    host: Optional[str] = None
    peer: Optional[str] = None
    duration: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.kind == HANG and self.duration <= 0:
            raise ValueError("hang needs a positive duration")


def _check_rate(rate: float) -> float:
    rate = float(rate)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    return rate


class FaultPlan:
    """Builder for a reproducible set of faults.

    Rates are keyed by ``(src, dst)`` host-name pairs where ``None``
    acts as a wildcard; the most specific key wins:
    ``(src, dst)`` > ``(src, None)`` > ``(None, dst)`` > ``(None, None)``.
    """

    def __init__(self):
        self.events: list[FaultEvent] = []
        self._drop: dict[tuple, float] = {}
        self._duplicate: dict[tuple, float] = {}
        self._corrupt: dict[tuple, float] = {}

    # -- probabilistic perturbation ---------------------------------------

    def _set_rate(self, table, rate, src, dst) -> "FaultPlan":
        rate = _check_rate(rate)
        key = (src, dst)
        if rate == 0.0:
            table.pop(key, None)  # a zero rate is the same as no rate
        else:
            table[key] = rate
        return self

    def drop(self, rate: float, src: str = None, dst: str = None):
        """Lose packets on the wire with probability ``rate``."""
        return self._set_rate(self._drop, rate, src, dst)

    def duplicate(self, rate: float, src: str = None, dst: str = None):
        """Deliver packets twice with probability ``rate``."""
        return self._set_rate(self._duplicate, rate, src, dst)

    def corrupt(self, rate: float, src: str = None, dst: str = None):
        """Corrupt frames (dropped at the receiver's checksum) with
        probability ``rate``."""
        return self._set_rate(self._corrupt, rate, src, dst)

    # -- timed events ------------------------------------------------------

    def _add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    def crash(self, host: str, at: float):
        """Crash ``host`` at virtual time ``at`` (fail-stop: its CPU
        rejects work, queued and arriving packets are lost)."""
        return self._add(FaultEvent(at=at, kind=CRASH, host=host))

    def restart(self, host: str, at: float):
        """Restart a crashed ``host`` at ``at`` (ports re-register,
        volatile state is gone)."""
        return self._add(FaultEvent(at=at, kind=RESTART, host=host))

    def partition(self, a: str, b: str, at: float):
        """Cut the link between hosts ``a`` and ``b`` at ``at``."""
        return self._add(FaultEvent(at=at, kind=PARTITION, host=a, peer=b))

    def heal(self, a: str, b: str, at: float):
        """Undo a partition between ``a`` and ``b`` at ``at``."""
        return self._add(FaultEvent(at=at, kind=HEAL, host=a, peer=b))

    def hang(self, host: str, at: float, duration: float):
        """Seize ``host``'s CPU for ``duration`` seconds starting at
        ``at`` (models a wedged daemon: the host is alive but busy)."""
        return self._add(
            FaultEvent(at=at, kind=HANG, host=host, duration=duration)
        )

    # -- queries (used by the injector and the transport fast paths) -------

    def _rate_for(self, table, src: str, dst: str) -> float:
        for key in ((src, dst), (src, None), (None, dst), (None, None)):
            rate = table.get(key)
            if rate is not None:
                return rate
        return 0.0

    def drop_rate(self, src: str, dst: str) -> float:
        return self._rate_for(self._drop, src, dst)

    def duplicate_rate(self, src: str, dst: str) -> float:
        return self._rate_for(self._duplicate, src, dst)

    def corrupt_rate(self, src: str, dst: str) -> float:
        return self._rate_for(self._corrupt, src, dst)

    @property
    def lossy(self) -> bool:
        """True if the wire itself can misbehave (rates or partitions).

        Reliable (ack/retransmit) delivery is switched on exactly when
        this is true, so a crash-only plan pays no ack traffic and a
        zero-fault plan costs nothing at all.
        """
        return bool(
            self._drop
            or self._duplicate
            or self._corrupt
            or any(e.kind in (PARTITION, HEAL) for e in self.events)
        )

    @property
    def can_crash(self) -> bool:
        """True if any host may crash — gates checkpointing overhead."""
        return any(e.kind == CRASH for e in self.events)

    @property
    def empty(self) -> bool:
        return not self.events and not self.lossy

    def sorted_events(self) -> list[FaultEvent]:
        """Events in application order (stable on insertion order)."""
        return sorted(self.events, key=lambda e: e.at)

    # -- validation --------------------------------------------------------

    def validate(self, host_names=None) -> "FaultPlan":
        """Check the plan's internal consistency; returns ``self``.

        Raises :class:`FaultPlanError` on the schedule-level mistakes a
        per-event constructor cannot see: events (or rate keys) naming
        hosts the cluster does not have, a restart of a host that never
        crashed, a second crash without an intervening restart, and
        overlapping partition intervals (or a heal with no matching
        partition) on the same link.  Partition/heal windows are checked
        in virtual-time order (``sorted_events``), so an unordered pair
        — a heal scheduled *before* its partition — is rejected as a
        heal of an uncut link, and timed events must name concrete
        hosts (``None`` wildcards are only meaningful for rate keys).
        The injector calls this at arm time with the live network's
        host list.
        """
        known = set(host_names) if host_names is not None else None

        def check_host(name, what):
            if name is not None and known is not None and name not in known:
                raise FaultPlanError(
                    f"{what} names unknown host {name!r}; cluster has "
                    f"{sorted(known)}"
                )

        def require_host(name, what):
            if name is None:
                raise FaultPlanError(
                    f"{what} must name a concrete host, not None "
                    "(wildcards are only meaningful for rates)"
                )
            check_host(name, what)

        for table, label in (
            (self._drop, "drop"),
            (self._duplicate, "duplicate"),
            (self._corrupt, "corrupt"),
        ):
            for src, dst in table:
                check_host(src, f"{label} rate src")
                check_host(dst, f"{label} rate dst")

        down: set[str] = set()
        cut: set[frozenset] = set()
        for event in self.sorted_events():
            require_host(event.host, f"{event.kind} event at t={event.at}")
            if event.kind in (PARTITION, HEAL):
                require_host(
                    event.peer, f"{event.kind} peer at t={event.at}"
                )
            else:
                check_host(event.peer, f"{event.kind} event at t={event.at}")
            if event.kind == CRASH:
                if event.host in down:
                    raise FaultPlanError(
                        f"host {event.host!r} crashes again at "
                        f"t={event.at} without an intervening restart"
                    )
                down.add(event.host)
            elif event.kind == RESTART:
                if event.host not in down:
                    raise FaultPlanError(
                        f"restart of {event.host!r} at t={event.at} "
                        "but it never crashed before that"
                    )
                down.discard(event.host)
            elif event.kind in (PARTITION, HEAL):
                if event.host == event.peer:
                    raise FaultPlanError(
                        f"{event.kind} at t={event.at} links host "
                        f"{event.host!r} to itself"
                    )
                pair = frozenset((event.host, event.peer))
                if event.kind == PARTITION:
                    if pair in cut:
                        raise FaultPlanError(
                            f"link {event.host!r}<->{event.peer!r} is "
                            f"partitioned again at t={event.at} while "
                            "already cut (overlapping intervals)"
                        )
                    cut.add(pair)
                else:
                    if pair not in cut:
                        raise FaultPlanError(
                            f"heal of {event.host!r}<->{event.peer!r} at "
                            f"t={event.at} but that link is not "
                            "partitioned"
                        )
                    cut.discard(pair)
        return self

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON form; inverse of :meth:`from_dict`.

        Rate keys flatten to ``[src, dst, rate]`` triples (``None`` is a
        wildcard) because JSON objects cannot key on tuples.
        """
        return {
            "events": [
                {
                    "at": e.at,
                    "kind": e.kind,
                    "host": e.host,
                    "peer": e.peer,
                    "duration": e.duration,
                }
                for e in self.events
            ],
            "drop": [[s, d, r] for (s, d), r in sorted(
                self._drop.items(), key=repr)],
            "duplicate": [[s, d, r] for (s, d), r in sorted(
                self._duplicate.items(), key=repr)],
            "corrupt": [[s, d, r] for (s, d), r in sorted(
                self._corrupt.items(), key=repr)],
        }

    # Replays a `repro search` reproducer (CLI help and README name it).
    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan serialized by :meth:`to_dict` (validating as
        the builder would).

        Files written by older versions carry a ``"retransmit"`` key.
        ``null`` there means the cost model's timing and is accepted;
        retransmit timing lives only in :class:`~repro.netsim.CostModel`,
        so any other value cannot be honoured and raises
        :class:`FaultPlanError`.
        """
        if data.get("retransmit") is not None:
            raise FaultPlanError(
                "fault plans no longer carry a retransmit policy; set "
                "CostModel.retransmit_* instead (got "
                f"{data['retransmit']!r})"
            )
        plan = cls()
        for entry in data.get("events", ()):
            plan._add(FaultEvent(**entry))
        for method, key in (
            (plan.drop, "drop"),
            (plan.duplicate, "duplicate"),
            (plan.corrupt, "corrupt"),
        ):
            for src, dst, rate in data.get(key, ()):
                method(rate, src=src, dst=dst)
        return plan

    def __repr__(self) -> str:
        return (
            f"<FaultPlan events={len(self.events)} "
            f"drop={len(self._drop)} dup={len(self._duplicate)} "
            f"corrupt={len(self._corrupt)}>"
        )
