"""Optimistic virtual-time kernel — Time Warp (Jefferson 1985).

"Optimistic approaches permit processors to advance their local virtual
times at their own pace but require that a computation be rolled back if
a 'straggler' Messenger arrives … This, in turn, may require the sending
of 'anti-Messengers' to cancel Messengers that departed during the time
that is being rolled back" (§2.2).

Implementation per LP:

* **state saving** — before every handled event the LP snapshots its
  state (charged ``state_save_per_byte_s × state_bytes``);
* **straggler detection** — an arriving event ordered before the LP's
  last processed event triggers a rollback (charged ``rollback_s``);
* **anti-messages** — rollback sends the annihilating twin of every
  output the undone events produced; anti-messages cancel their twins
  wherever they are (pending, processed — causing cascaded rollback —
  or still in transit, caught on arrival);
* **GVT & fossil collection** — a controller computes the true global
  minimum of unprocessed/in-transit timestamps (exact in a simulator)
  and LPs discard history older than GVT.

Final LP states are provably identical to a conservative execution of
the same workload; ``tests/test_gvt.py`` asserts exactly that, and the
ABL-GVT benchmark compares the two kernels' virtual-time costs.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass
from typing import Iterable, Optional

from ..des import Simulator, Store
from ..netsim import CostModel, DEFAULT_COSTS
from .base import Event, LpSpec, RunStats, VirtualTimeKernelError

__all__ = ["TimeWarpKernel"]

_NEG_INF = float("-inf")


@dataclass
class _ProcessedEntry:
    """History record enabling rollback of one handled event."""

    event: Event
    snapshot: dict
    outputs: list


class _Lp:
    """Runtime wrapper around one LpSpec."""

    def __init__(self, spec: LpSpec, kernel: "TimeWarpKernel"):
        self.spec = spec
        self.kernel = kernel
        self.inbox: Store = Store(kernel.sim)
        self.pending: list = []  # heap of (ts, uid, event)
        self.processed: list[_ProcessedEntry] = []
        self.last_key: tuple = (_NEG_INF, 0)
        #: Positive events annihilated before arrival (anti came first).
        self.doomed: set = set()
        #: Killed by :meth:`TimeWarpKernel.kill_lp` (crash injection).
        self.dead = False

    # -- queue helpers ----------------------------------------------------

    def push_pending(self, event: Event) -> None:
        heapq.heappush(self.pending, (event.timestamp, event.uid, event))
        self.kernel._outstanding_changed(+1)
        self.inbox.put(None)  # wake the LP loop

    def pop_pending(self) -> Event:
        """Remove the minimum event WITHOUT outstanding accounting; the
        LP loop settles accounting after the event is fully handled so
        quiescence is never declared mid-processing."""
        _ts, _uid, event = heapq.heappop(self.pending)
        return event

    def remove_pending(self, uid: int) -> bool:
        for index, (_ts, entry_uid, _event) in enumerate(self.pending):
            if entry_uid == uid:
                self.pending.pop(index)
                heapq.heapify(self.pending)
                self.kernel._outstanding_changed(-1)
                return True
        return False

    def min_pending_ts(self) -> float:
        return self.pending[0][0] if self.pending else float("inf")


class TimeWarpKernel:
    """The optimistic executor."""

    def __init__(
        self,
        sim: Simulator,
        lps: Iterable[LpSpec],
        costs: CostModel = DEFAULT_COSTS,
        message_latency_s: Optional[float] = None,
        gvt_interval_s: float = 0.05,
    ):
        self.sim = sim
        self.costs = costs
        self.message_latency_s = (
            message_latency_s
            if message_latency_s is not None
            else costs.wire_latency_s
        )
        self.gvt_interval_s = gvt_interval_s
        self.gvt = 0.0
        self.stats = RunStats()
        self._lps: dict[str, _Lp] = {}
        for spec in lps:
            if spec.name in self._lps:
                raise VirtualTimeKernelError(
                    f"duplicate LP name {spec.name!r}"
                )
            self._lps[spec.name] = _Lp(spec, self)
        if not self._lps:
            raise VirtualTimeKernelError("kernel needs at least one LP")
        self._in_transit: dict[int, float] = {}  # uid -> timestamp
        self._outstanding = 0
        self._done = sim.event()
        self._started = False

    # -- public API ---------------------------------------------------------

    def post(self, event: Event) -> None:
        """Schedule an initial event."""
        lp = self._lp_of(event)
        lp.push_pending(event)

    def run(self, until_vt: float = float("inf")) -> RunStats:
        """Execute to completion; returns run statistics.

        ``until_vt`` bounds committed virtual time: once GVT exceeds it
        the run is cut off (remaining events are abandoned).
        """
        self._until_vt = until_vt
        if not self._started:
            self._started = True
            for lp in self._lps.values():
                self.sim.process(self._lp_loop(lp), daemon=True)
            self.sim.process(self._gvt_controller(), daemon=True)
        if self._outstanding == 0:
            self._finish()
        self.sim.run(until=self._done)
        self.stats.final_gvt = self.gvt
        self.stats.wallclock_s = self.sim.now
        return self.stats

    def state_of(self, name: str) -> dict:
        """Final (or current) state of one LP."""
        return self._lps[name].spec.state

    # Crash injection for the library kernel; the daemons crash via faults.
    def kill_lp(self, name: str) -> None:
        """Crash one LP mid-run (fault injection).

        Its pending events are discarded, and anti-messages go out for
        every *uncommitted* event it ever sent (timestamp > GVT) — those
        sends are orphans of speculative work that can no longer be
        confirmed, and leaving them uncancelled would let downstream LPs
        commit state derived from a vanished sender.  Committed history
        (≤ GVT) stands, exactly as fossil collection guarantees.
        """
        try:
            lp = self._lps[name]
        except KeyError:
            raise VirtualTimeKernelError(f"unknown LP {name!r}") from None
        if lp.dead:
            return
        lp.dead = True
        self.stats.lps_killed += 1
        metrics = self.sim.obs
        if metrics is not None:
            metrics.count("gvt.lps_killed")
            metrics.instant(
                "gvt", "lp_killed", self.sim.now, args={"lp": name}
            )
        while lp.pending:
            lp.pop_pending()
            self.stats.orphans_cancelled += 1
            if metrics is not None:
                metrics.count("gvt.orphans_cancelled")
            self._outstanding_changed(-1)
        for entry in lp.processed:
            for output in entry.outputs:
                if output.timestamp > self.gvt:
                    self.stats.orphans_cancelled += 1
                    if metrics is not None:
                        metrics.count("gvt.orphans_cancelled")
                    self._send(output.as_anti())
        lp.processed.clear()
        lp.doomed.clear()

    # -- internals ------------------------------------------------------------

    def _lp_of(self, event: Event) -> _Lp:
        try:
            return self._lps[event.target]
        except KeyError:
            raise VirtualTimeKernelError(
                f"unknown LP {event.target!r}"
            ) from None

    def _outstanding_changed(self, delta: int) -> None:
        self._outstanding += delta
        if self._outstanding == 0 and self._started:
            self._finish()

    def _finish(self) -> None:
        if not self._done.triggered:
            self._done.succeed()

    # -- message transport ----------------------------------------------------------

    def _send(self, event: Event) -> None:
        """Dispatch an event (or anti-event) with transit latency."""
        self._in_transit[event.uid if not event.anti else -event.uid] = (
            event.timestamp
        )
        self._outstanding_changed(+1)
        self.sim.process(self._deliver(event))

    def _deliver(self, event: Event):
        yield self.sim.timeout(self.message_latency_s)
        lp = self._lp_of(event)
        # Absorb first, then settle the in-transit accounting, so that
        # quiescence cannot be declared between arrival and absorption.
        if lp.dead:
            # Mail for a crashed LP — positive or anti — is an orphan;
            # the kernel already cancelled everything the LP owed.
            self.stats.orphans_cancelled += 1
            metrics = self.sim.obs
            if metrics is not None:
                metrics.count("gvt.orphans_cancelled")
        else:
            self._absorb(lp, event)
        del self._in_transit[event.uid if not event.anti else -event.uid]
        self._outstanding_changed(-1)

    def _absorb(self, lp: _Lp, event: Event) -> None:
        """Classify an arrival: anti, straggler, or plain pending."""
        if event.anti:
            self.stats.anti_messages += 1
            metrics = self.sim.obs
            if metrics is not None:
                metrics.count("gvt.anti_messages")
            self._annihilate(lp, event)
            return
        if event.uid in lp.doomed:
            lp.doomed.discard(event.uid)  # cancelled before arrival
            return
        key = (event.timestamp, event.uid)
        if key <= lp.last_key:
            self._rollback(lp, key)
        lp.push_pending(event)

    def _annihilate(self, lp: _Lp, anti: Event) -> None:
        if lp.remove_pending(anti.uid):
            return
        processed_keys = [
            (entry.event.timestamp, entry.event.uid)
            for entry in lp.processed
        ]
        key = (anti.timestamp, anti.uid)
        if key in processed_keys:
            # The positive twin was already handled: undo back to it,
            # then drop it instead of re-queueing.
            self._rollback(lp, key, drop_uid=anti.uid)
            return
        # Twin still in transit: doom it so it dies on arrival.
        lp.doomed.add(anti.uid)

    def _rollback(self, lp: _Lp, to_key: tuple, drop_uid: Optional[int] = None):
        """Undo all processed events ordered at or after ``to_key``."""
        self.stats.rollbacks += 1
        metrics = self.sim.obs
        if metrics is not None:
            metrics.count("gvt.rollbacks")
            metrics.instant(
                "gvt", "rollback", self.sim.now,
                args={"lp": lp.spec.name, "to": to_key[0]},
            )
        undone: list[_ProcessedEntry] = []
        while lp.processed:
            entry = lp.processed[-1]
            entry_key = (entry.event.timestamp, entry.event.uid)
            if entry_key < to_key:
                break
            lp.processed.pop()
            undone.append(entry)
        if not undone:
            return
        # Restore the snapshot taken before the earliest undone event.
        lp.spec.state.clear()
        lp.spec.state.update(undone[-1].snapshot)
        lp.last_key = (
            (lp.processed[-1].event.timestamp, lp.processed[-1].event.uid)
            if lp.processed
            else (_NEG_INF, 0)
        )
        for entry in undone:
            self.stats.events_rolled_back += 1
            if metrics is not None:
                metrics.count("gvt.events_rolled_back")
            # Cancel everything these events sent.
            for output in entry.outputs:
                self._send(output.as_anti())
            if drop_uid is not None and entry.event.uid == drop_uid:
                continue  # annihilated with its anti-message
            lp.push_pending(entry.event)

    # -- LP execution -----------------------------------------------------------------

    def _lp_loop(self, lp: _Lp):
        spec = lp.spec
        costs = self.costs
        state_save_charge = spec.state_bytes * costs.state_save_per_byte_s
        per_event_charge = state_save_charge + spec.cost_s
        while True:
            if lp.dead:
                return
            if not lp.pending:
                yield lp.inbox.get()  # wake-up token
                continue
            # Charge state-save + processing time *before* touching any
            # state.  Stragglers arriving during the charge are absorbed
            # (possibly rolling back history) and the pop below then
            # picks the true minimum — no event is ever half-processed
            # across a simulation yield.
            if per_event_charge > 0:
                yield self.sim.timeout(per_event_charge)
                metrics = self.sim.obs
                if metrics is not None:
                    metrics.charge("gvt", state_save_charge)
                    metrics.charge("compute", spec.cost_s)
            if not lp.pending:
                continue

            # ---- atomic from here (no simulation yields) ----
            event = lp.pop_pending()
            snapshot = copy.deepcopy(spec.state)
            outputs = spec.handler(spec.state, event) or []
            self.stats.events_processed += 1
            metrics = self.sim.obs
            if metrics is not None:
                metrics.count("gvt.events_processed")
            for produced in outputs:
                if produced.timestamp <= event.timestamp:
                    raise VirtualTimeKernelError(
                        f"LP {spec.name!r} produced an event at "
                        f"{produced.timestamp} <= now {event.timestamp}"
                    )
            lp.processed.append(
                _ProcessedEntry(event, snapshot, list(outputs))
            )
            lp.last_key = (event.timestamp, event.uid)
            for produced in outputs:
                self._send(produced)
            # Event fully handled: settle the accounting deferred by
            # pop_pending (outputs are already counted as in transit).
            self._outstanding_changed(-1)

    # -- GVT & fossils -------------------------------------------------------------------

    def _compute_gvt(self) -> float:
        values = [ts for ts in self._in_transit.values()]
        values.extend(
            lp.min_pending_ts()
            for lp in self._lps.values()
            if lp.pending
        )
        return min(values, default=float("inf"))

    def _gvt_controller(self):
        while not self._done.triggered:
            yield self.sim.timeout(self.gvt_interval_s)
            new_gvt = self._compute_gvt()
            if new_gvt == float("inf"):
                continue
            if new_gvt > self.gvt:
                self.gvt = new_gvt
                self.stats.gvt_advances += 1
                metrics = self.sim.obs
                if metrics is not None:
                    metrics.count("gvt.advances")
                    metrics.gauge("gvt.value").set(self.gvt)
                self._fossil_collect()
                if self.gvt > getattr(self, "_until_vt", float("inf")):
                    self._finish()
                    return

    def _fossil_collect(self) -> None:
        """Discard history no rollback can ever need (ts < GVT)."""
        collected = 0
        for lp in self._lps.values():
            keep = [
                entry
                for entry in lp.processed
                if entry.event.timestamp >= self.gvt
            ]
            collected += len(lp.processed) - len(keep)
            lp.processed = keep
        if collected:
            metrics = self.sim.obs
            if metrics is not None:
                metrics.count("gvt.fossil_collected", collected)
