"""Replicated mailboxes: replica sets, quorum writes, gossip repair.

One mailbox per logical node is how :mod:`repro.mailbox` ships — which
means a partition that isolates the home daemon silently stalls every
saga built on that mailbox until the link heals and the retransmitters
catch up.  This layer spreads each mailbox over a *replica set* of
daemons (``ReplicationConfig.factor`` of them, the home daemon first):

* **writes** fan out to every replica over the existing reliable
  mailbox port and are *quorum-acked* — the write counts as durable
  once a majority of replicas spooled it, so either side of a
  partition keeps accepting mail as long as it holds a quorum;
* **anti-entropy** runs as a periodic gossip driver: while any replica
  set is divergent ("dirty"), each live daemon exchanges per-mailbox
  stage maps (mail id -> lifecycle stage, summarized by a version
  vector of per-origin write sequences) with a rotating co-replica
  peer, and the three-leg syn/ack/push protocol read-repairs both
  sides — bodies ride the wire only for records the other side lacks;
* **promotion**: when the home daemon dies, the mailbox layer's
  failure hook re-homes the node onto the surviving replica with the
  most complete spool instead of replaying everything from the ledger
  — only mail no surviving replica ever acked is re-sent.

Everything is deterministic: daemons are iterated in registry order,
dirty sets and stage maps in sorted order, and peer rotation is a
per-daemon round-robin — a (seed, plan) pair replays bit-identically,
which the TraceHasher properties in ``tests/test_replication.py`` pin
down.  With ``replication=None`` (or factor 1) none of this exists:
no driver process, no extra packets, no extra events — the disabled
path is byte-identical to the pre-replication mailbox layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from ..des import Store
from ..netsim import Packet

__all__ = [
    "ReplicaState",
    "ReplicationConfig",
    "ReplicationService",
    "merge_stages",
    "merge_vv",
    "vv_dominates",
]

#: Anti-entropy cadence while any replica set is divergent.
GOSSIP_INTERVAL_S = 0.02
#: Bound on one syn/ack/push exchange: a peer that has not answered
#: within it may be re-tried.
EXCHANGE_TIMEOUT_S = 0.5
#: Consecutive expired exchanges after which a pair is suspended until
#: a heal is observed, so an unhealed partition degrades to a loud
#: non-convergence instead of an infinite gossip spin.
MAX_EXCHANGE_FAILURES = 3
#: Fixed per-gossip-message envelope in bytes.
GOSSIP_ENVELOPE_BYTES = 64
#: Wire size of one (mail id, stage) record in a gossip map.
RECORD_BYTES = 16
#: Wire size of one mailbox uid key in a gossip map.
UID_BYTES = 8


# -- version vectors ---------------------------------------------------------


# Reference join: the Hypothesis lattice laws are stated on it.
def merge_vv(a: dict, b: dict) -> dict:
    """Join two version vectors: pointwise max over origin components.

    This is the join of a lattice, so it is commutative, associative,
    and idempotent — the properties that make anti-entropy safe to run
    in any order, any number of times (proven by the Hypothesis
    suite in ``tests/test_replication.py``).
    """
    merged = dict(a)
    for origin, seq in b.items():
        if seq > merged.get(origin, 0):
            merged[origin] = seq
    return merged


# Reference order for the same lattice laws.
def vv_dominates(a: dict, b: dict) -> bool:
    """True if ``a`` has seen at least everything ``b`` has."""
    return all(a.get(origin, 0) >= seq for origin, seq in b.items())


# Reference join of stage maps; ``_apply_records`` applies it inline.
def merge_stages(a: dict, b: dict) -> dict:
    """Join two stage maps: union by mail id, max lifecycle stage.

    Same lattice structure as :func:`merge_vv` — lifecycle stages only
    move forward, so the pointwise max is the truth both replicas
    converge to.
    """
    merged = dict(a)
    for mid, stage in b.items():
        if stage > merged.get(mid, -1):
            merged[mid] = stage
    return merged


class ReplicaState:
    """One daemon's durable spool bookkeeping for one mailbox.

    ``stages`` maps mail id -> highest lifecycle stage this replica
    knows (presence = the record is durably spooled here); ``vv`` is
    the version vector summarizing which writes it has seen, keyed by
    write origin.  Two replicas of a mailbox are convergent exactly
    when their stage maps are equal.
    """

    __slots__ = ("stages", "vv")

    def __init__(self):
        self.stages: dict[int, int] = {}
        self.vv: dict[str, int] = {}

    def observe(self, origin: str, oseq: int) -> None:
        if oseq > self.vv.get(origin, 0):
            self.vv[origin] = oseq

    def digest(self) -> str:
        """Lifecycle digest of this replica's spool (the gossip unit of
        comparison; mirrors ``MailboxService.lifecycle_digest``)."""
        blob = repr(sorted(self.stages.items())).encode("utf-8")
        return hashlib.sha1(blob).hexdigest()

    def __repr__(self) -> str:
        return f"<ReplicaState records={len(self.stages)} vv={self.vv}>"


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class ReplicationConfig:
    """Typed configuration for mailbox replication (facade plumbing).

    ``factor`` is the replica-set size per mailbox (1 = replication
    off — the service arms nothing and stays byte-identical to a
    replication-free build).  ``quorum`` is how many replica acks make
    a write durable (default: majority).  The gossip cadence and the
    exchange timeout are the module constants ``GOSSIP_INTERVAL_S``,
    ``EXCHANGE_TIMEOUT_S`` and ``MAX_EXCHANGE_FAILURES``.
    """

    factor: int = 2
    quorum: Optional[int] = None

    def __post_init__(self):
        if self.factor < 1:
            raise ValueError(
                f"replication factor must be >= 1, got {self.factor}"
            )
        if self.quorum is not None and not (
            1 <= self.quorum <= self.factor
        ):
            raise ValueError(
                f"quorum must be in [1, factor={self.factor}], "
                f"got {self.quorum}"
            )

    @property
    def effective_quorum(self) -> int:
        """The write quorum actually enforced (majority by default)."""
        if self.quorum is not None:
            return self.quorum
        return self.factor // 2 + 1


# -- the service -------------------------------------------------------------


class ReplicationService:
    """Replica sets + quorum writes + gossip anti-entropy for one
    :class:`~repro.mailbox.MailboxService`.

    Constructed by the mailbox service itself when its config carries a
    :class:`ReplicationConfig` with factor >= 2; everything flows
    through the existing mailbox port and pumps (payload kinds
    ``rmail`` for replicated writes, ``repl`` for gossip), so the
    reliable transport, fault injection, and cost accounting all apply
    unchanged.
    """

    def __init__(self, service, config: ReplicationConfig):
        self.service = service
        self.system = service.system
        self.sim = service.sim
        self.config = config
        self.quorum = config.effective_quorum
        #: daemon name -> mailbox uid -> ReplicaState.
        self._replicas: dict[str, dict[int, ReplicaState]] = {}
        #: mailbox uid -> ordered replica daemons (home first at birth).
        self._sets: dict[int, list[str]] = {}
        #: Mailboxes whose replicas are known-divergent.
        self._dirty: set[int] = set()
        #: mail id -> Mail, for materializing gossip-carried records.
        self._mail_records: dict = {}
        #: mail id -> daemons that durably acked the write.
        self._acks: dict[int, set[str]] = {}
        #: mail id -> daemons the write was ever dispatched to.
        self._inflight: dict[int, set[str]] = {}
        #: mail id -> virtual time the write reached quorum.
        self.quorum_times: dict[int, float] = {}
        #: (mailbox uid, origin daemon) -> last write sequence.
        self._oseq: dict[tuple[int, str], int] = {}
        #: (initiator, peer) -> start time of the outstanding exchange.
        self._outstanding: dict[tuple[str, str], float] = {}
        #: (initiator, peer) -> consecutive expired exchanges.
        self._fails: dict[tuple[str, str], int] = {}
        #: Per-daemon round-robin cursor over gossip peers.
        self._rot: dict[str, int] = {}
        #: Virtual time the cluster last became fully convergent.
        self.converged_s: Optional[float] = None
        self.counts: dict[str, int] = {}
        self._wake: Store = Store(self.sim)
        self.system.network.add_heal_listener(self._on_heal)
        self.sim.process(self._gossip_driver(), daemon=True)

    # -- accounting ---------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n
        metrics = self.sim.obs
        if metrics is not None:
            metrics.count(f"replication.{key}", n)

    def _gauge_divergence(self) -> None:
        metrics = self.sim.obs
        if metrics is not None:
            metrics.gauge("replication.divergence").set(
                len(self._dirty)
            )

    def stats(self) -> dict:
        """JSON-friendly snapshot for benches and ``repro stats``."""
        return {
            "factor": self.config.factor,
            "quorum": self.quorum,
            "mailboxes": len(self._sets),
            "dirty": len(self._dirty),
            "converged_s": self.converged_s,
            "counts": dict(sorted(self.counts.items())),
        }

    # -- membership ---------------------------------------------------------

    def _is_live(self, name: str) -> bool:
        daemon = self.system.daemons.get(name)
        return (
            daemon is not None
            and not daemon.dead
            and not daemon.retired
        )

    def _state(self, daemon: str, uid: int) -> ReplicaState:
        boxes = self._replicas.setdefault(daemon, {})
        state = boxes.get(uid)
        if state is None:
            state = boxes[uid] = ReplicaState()
        return state

    def replica_set(self, uid: int) -> list[str]:
        """The replica daemons of mailbox ``uid`` (built on first
        write: the home daemon, then the next live daemons in registry
        order until the factor is met)."""
        members = self._sets.get(uid)
        if members is not None:
            return members
        box = self.service._boxes[uid]
        home = box.node.daemon
        members = [home]
        names = self.system.daemon_names
        start = names.index(home) if home in names else 0
        for step in range(1, len(names)):
            if len(members) >= self.config.factor:
                break
            candidate = names[(start + step) % len(names)]
            if candidate not in members and self._is_live(candidate):
                members.append(candidate)
        self._sets[uid] = members
        for member in members:
            self._state(member, uid)
        return members

    def digests(self, uid: int) -> dict[str, str]:
        """Per-replica lifecycle digests of mailbox ``uid``."""
        return {
            member: self._state(member, uid).digest()
            for member in self._sets.get(uid, [])
        }

    # -- dirtiness / convergence --------------------------------------------

    def is_convergent(self, uid: int) -> bool:
        members = self._sets.get(uid)
        if not members:
            return True
        first = self._state(members[0], uid).stages
        return all(
            self._state(member, uid).stages == first
            for member in members[1:]
        )

    def _after_change(self, uid: int) -> None:
        """Re-check one mailbox's convergence and book-keep the dirty
        set (waking the gossip driver on the empty -> dirty edge)."""
        if self.is_convergent(uid):
            if uid in self._dirty:
                self._dirty.discard(uid)
                if not self._dirty:
                    self.converged_s = self.sim.now
            self._gauge_divergence()
            return
        if uid not in self._dirty:
            was_clean = not self._dirty
            self._dirty.add(uid)
            self._gauge_divergence()
            if was_clean:
                self._wake.put(1)

    def _nudge(self) -> None:
        """Wake a parked driver after external progress (an exchange
        completing, a heal, a membership refill)."""
        if self._dirty:
            self._wake.put(1)

    # -- the write path -----------------------------------------------------

    def dispatch(self, mail, origin: str) -> None:
        """Fan one write out to every replica of its mailbox.

        Stamps the logical write origin + per-(mailbox, origin)
        sequence on first dispatch (the version-vector component);
        re-dispatches skip replicas that already acked.
        """
        uid = mail.to_uid
        members = self.replica_set(uid)
        if not mail.origin:
            mail.origin = origin
            key = (uid, origin)
            seq = self._oseq.get(key, 0) + 1
            self._oseq[key] = seq
            mail.oseq = seq
        box = self.service._boxes[uid]
        mail.src_daemon = origin
        mail.dst_daemon = box.node.daemon
        acked = self._acks.get(mail.id, ())
        inflight = self._inflight.setdefault(mail.id, set())
        for target in members:
            if target in acked:
                continue
            inflight.add(target)
            self.count("replica_dispatches")
            self.system.network.post(Packet(
                src=origin,
                dst=target,
                port=self.service.port_name,
                payload=("rmail", mail),
                size_bytes=mail.size_bytes,
            ))

    def on_rmail(self, daemon_name: str, mail) -> None:
        """A replicated write arrived at one replica's pump."""
        uid = mail.to_uid
        members = self._sets.get(uid)
        if members is None or daemon_name not in members:
            # The set was refilled while this copy was in flight; the
            # current members got (or will gossip) their own copies.
            self.count("stale_replica_copies")
            return
        self._mail_records.setdefault(mail.id, mail)
        state = self._state(daemon_name, uid)
        if mail.id not in state.stages:
            state.stages[mail.id] = 0  # durably spooled, stage "sent"
            state.observe(mail.origin, mail.oseq)
            self.count("replica_accepts")
            self._record_ack(daemon_name, mail.id)
        else:
            self.count("replica_duplicates")
        box = self.service._boxes.get(uid)
        if box is not None and box.node.daemon == daemon_name:
            # This replica is the home: spool into the visible mailbox
            # (pops the ledger, advances the canonical lifecycle).
            self.service._deliver_now(box, mail)
        self._after_change(uid)

    def _record_ack(self, daemon_name: str, mail_id: int) -> None:
        acks = self._acks.setdefault(mail_id, set())
        if daemon_name in acks:
            return
        acks.add(daemon_name)
        if len(acks) == self.quorum:
            self.quorum_times[mail_id] = self.sim.now
            self.count("quorum_writes")

    def note_stage(self, uid: int, mail) -> None:
        """The home advanced a mail's lifecycle; record it at the home
        replica so gossip propagates the advancement."""
        members = self._sets.get(uid)
        if not members:
            return
        box = self.service._boxes.get(uid)
        home = box.node.daemon if box is not None else members[0]
        target = home if home in members else members[0]
        state = self._state(target, uid)
        previous = state.stages.get(mail.id, -1)
        if mail.stage > previous:
            if previous < 0:
                state.observe(mail.origin, mail.oseq)
                self._record_ack(target, mail.id)
            state.stages[mail.id] = mail.stage
            self._after_change(uid)

    # -- failure / churn ----------------------------------------------------

    def _replacement(self, members: list[str]) -> Optional[str]:
        for name in self.system.daemon_names:
            if name not in members and self._is_live(name):
                return name
        return None

    def _refill(self, uid: int, leaver: str) -> None:
        """Drop ``leaver`` from one replica set, backfill a live
        daemon, and promote a surviving replica to home if needed."""
        members = self._sets[uid]
        members.remove(leaver)
        states = self._replicas.get(leaver)
        if states is not None:
            states.pop(uid, None)
        if len(members) < self.config.factor:
            replacement = self._replacement(members)
            if replacement is not None:
                members.append(replacement)
                self._state(replacement, uid)
        box = self.service._boxes.get(uid)
        if box is not None and members:
            if box.node.daemon not in members:
                # The messengers layer re-homed the node round-robin;
                # override: promote the surviving replica with the most
                # complete spool (ties -> replica-set order), which
                # already holds the mail durably.
                best = max(
                    members,
                    key=lambda m: (
                        len(self._state(m, uid).stages),
                        -members.index(m),
                    ),
                )
                self.system.logical.rehome(box.node, best)
                self.count("replicas_promoted")
            self._drain_to_home(uid)
        self._after_change(uid)

    def _drain_to_home(self, uid: int) -> None:
        """Sync the home replica with the visible mailbox both ways:
        deliver replica-held mail the spool lacks, and backfill the
        replica state from the durable spool the new home inherited
        (the spool follows the node through re-homing — PR 6's
        durability model)."""
        box = self.service._boxes.get(uid)
        if box is None:
            return
        home = box.node.daemon
        if home not in self._sets.get(uid, ()):
            return
        state = self._state(home, uid)
        for mid in sorted(state.stages):
            if mid not in box._mails:
                mail = self._mail_records.get(mid)
                if mail is not None:
                    self.service._deliver_now(box, mail)
        for mail in box.mails:
            previous = state.stages.get(mail.id, -1)
            if mail.stage > previous:
                if previous < 0:
                    state.observe(mail.origin, mail.oseq)
                    self._record_ack(home, mail.id)
                state.stages[mail.id] = mail.stage

    def _forget_pairs(self, name: str) -> None:
        for key in [k for k in self._outstanding if name in k]:
            del self._outstanding[key]
        for key in [k for k in self._fails if name in k]:
            del self._fails[key]

    def on_host_failure(self, name: str) -> None:
        """Failure announcement: promote replicas, then replay only the
        ledger entries no surviving replica ever acked."""
        for uid in sorted(self._sets):
            if name in self._sets[uid]:
                self._refill(uid, name)
        self._forget_pairs(name)
        service = self.service
        for mail in list(service._pending.values()):
            targets = self._inflight.get(mail.id, ())
            if name != mail.src_daemon and name not in targets:
                continue
            acked = self._acks.get(mail.id, ())
            if any(self._is_live(d) for d in acked):
                # A surviving replica holds it durably; promotion /
                # gossip completes the visible delivery without a
                # full re-send from the origin.
                self.count("ledger_replays_avoided")
                self._after_change(mail.to_uid)
                continue
            service.count("redispatched")
            self.dispatch(mail, service._first_live_daemon())
        self._nudge()

    def on_daemon_retired(self, name: str) -> None:
        """Graceful churn: same membership refill + promotion as a
        failure; the mailbox layer's own retire hook replays the
        ledger entries whose home was the leaver."""
        for uid in sorted(self._sets):
            if name in self._sets[uid]:
                self._refill(uid, name)
        self._forget_pairs(name)
        self._nudge()

    def _on_heal(self, a: str, b: str) -> None:
        """Carrier came back on a cut link: lift pair suspensions and
        let the driver resume converging immediately."""
        self._outstanding.clear()
        self._fails.clear()
        self.count("heals_observed")
        self._nudge()

    # -- gossip anti-entropy ------------------------------------------------

    def _gossip_driver(self):
        """The anti-entropy heartbeat.

        Parks (keeping the run quiescable) while every replica set is
        convergent or no peer is reachable-and-unsuspended; while
        dirty and sendable, ticks a *foreground* timeout each round so
        the run cannot end with known-divergent replicas that gossip
        could still repair.
        """
        while True:
            if not self._dirty or not self._has_sendable(self.sim.now):
                yield self._wake.get()
                continue
            yield self.sim.timeout(GOSSIP_INTERVAL_S)
            if self._dirty:
                self._run_round()

    def _live_daemons(self) -> list[str]:
        return [
            name
            for name in self.system.daemon_names
            if self._is_live(name)
        ]

    def _suspended(self, pair: tuple[str, str]) -> bool:
        return self._fails.get(pair, 0) >= MAX_EXCHANGE_FAILURES

    def _peer_for(
        self, daemon: str, now: float, commit: bool
    ) -> Optional[str]:
        """The next gossip peer for ``daemon``, round-robin over live
        co-replicas of its dirty mailboxes.  ``commit`` advances the
        rotation and books expired-exchange failures; a dry run only
        answers reachability."""
        uids = [
            uid
            for uid in sorted(self._dirty)
            if daemon in self._sets.get(uid, ())
        ]
        if not uids:
            return None
        peers = sorted({
            member
            for uid in uids
            for member in self._sets[uid]
            if member != daemon and self._is_live(member)
        })
        if not peers:
            return None
        start = self._rot.get(daemon, 0) % len(peers)
        for step in range(len(peers)):
            peer = peers[(start + step) % len(peers)]
            pair = (daemon, peer)
            if self._suspended(pair):
                continue
            started = self._outstanding.get(pair)
            if started is not None:
                if now - started < EXCHANGE_TIMEOUT_S:
                    continue
                if commit:
                    self._fails[pair] = self._fails.get(pair, 0) + 1
                    self.count("exchanges_expired")
                    if self._suspended(pair):
                        continue
            if commit:
                self._rot[daemon] = (start + step + 1) % len(peers)
            return peer
        return None

    def _has_sendable(self, now: float) -> bool:
        return any(
            self._peer_for(name, now, commit=False) is not None
            for name in self._live_daemons()
        )

    def _run_round(self) -> None:
        now = self.sim.now
        sent = 0
        for name in self._live_daemons():
            peer = self._peer_for(name, now, commit=True)
            if peer is None:
                continue
            self._send_syn(name, peer, now)
            sent += 1
        if sent:
            self.count("gossip_rounds")

    def _shared_dirty(self, daemon: str, peer: str) -> list[int]:
        return [
            uid
            for uid in sorted(self._dirty)
            if daemon in self._sets.get(uid, ())
            and peer in self._sets[uid]
        ]

    def _send_gossip(self, src: str, dst: str, message, size: int):
        if not self._is_live(src):
            # The crash landed under the pump mid-exchange: the reply
            # dies with the host.  Gossip is idempotent, so a later
            # round simply repeats the exchange from a survivor.
            self.count("gossip_lost_to_crash")
            return
        self.count("gossip_bytes", size)
        self.system.network.post(Packet(
            src=src,
            dst=dst,
            port=self.service.port_name,
            payload=("repl", message),
            size_bytes=size,
        ))

    def _send_syn(self, daemon: str, peer: str, now: float) -> None:
        self._outstanding[(daemon, peer)] = now
        maps = {
            uid: dict(self._state(daemon, uid).stages)
            for uid in self._shared_dirty(daemon, peer)
        }
        size = GOSSIP_ENVELOPE_BYTES + sum(
            UID_BYTES + RECORD_BYTES * len(records)
            for records in maps.values()
        )
        self.count("gossip_syns")
        self._send_gossip(daemon, peer, ("syn", daemon, maps), size)

    def on_gossip(self, daemon_name: str, message) -> None:
        kind = message[0]
        if kind == "syn":
            _, frm, maps = message
            self._handle_syn(daemon_name, frm, maps)
        elif kind == "ack":
            _, frm, updates, bodies, want = message
            self._handle_ack(daemon_name, frm, updates, bodies, want)
        else:
            _, frm, updates, bodies = message
            self._handle_push(daemon_name, frm, updates, bodies)

    def _apply_records(
        self,
        daemon: str,
        uid: int,
        records: dict,
        bodies: Optional[dict],
    ) -> list[int]:
        """Merge incoming ``{mail id: stage}`` records into one
        replica; returns the ids whose bodies are still needed.

        New records require their body on the wire (the ``bodies``
        map); stage advancements of known records do not.  The merge
        is the stage-map join — idempotent, so replayed or crossed
        gossip messages are harmless.
        """
        if daemon not in self._sets.get(uid, ()):
            return []
        state = self._state(daemon, uid)
        missing: list[int] = []
        changed = False
        for mid in sorted(records):
            stage = records[mid]
            previous = state.stages.get(mid, -1)
            if previous < 0:
                mail = bodies.get(mid) if bodies else None
                if mail is None:
                    missing.append(mid)
                    continue
                self._mail_records.setdefault(mid, mail)
                state.observe(mail.origin, mail.oseq)
                self._record_ack(daemon, mid)
                state.stages[mid] = stage
                self.count("repairs")
                changed = True
            elif stage > previous:
                state.stages[mid] = stage
                self.count("repairs")
                changed = True
        box = self.service._boxes.get(uid)
        if box is not None and box.node.daemon == daemon:
            # Read-repair reached the home replica: complete the
            # visible delivery of anything the spool lacks.
            for mid in sorted(state.stages):
                if mid not in box._mails:
                    mail = self._mail_records.get(mid)
                    if mail is not None:
                        self.service._deliver_now(box, mail)
        if changed:
            self.count("mailboxes_repaired")
        self._after_change(uid)
        return missing

    def _handle_syn(self, here: str, frm: str, maps: dict) -> None:
        """Peer side of an exchange: absorb the initiator's stage
        advancements, then answer with everything it is missing plus a
        want-list for records we lack the bodies of."""
        updates: dict[int, dict] = {}
        bodies: dict = {}
        want: dict[int, list[int]] = {}
        for uid in sorted(maps):
            theirs = maps[uid]
            if here not in self._sets.get(uid, ()):
                continue
            missing = self._apply_records(here, uid, theirs, None)
            if missing:
                want[uid] = missing
            mine = self._state(here, uid).stages
            diff = {
                mid: stage
                for mid, stage in mine.items()
                if theirs.get(mid, -1) < stage
            }
            if diff:
                updates[uid] = diff
                for mid in sorted(diff):
                    if mid not in theirs:
                        mail = self._mail_records.get(mid)
                        if mail is not None:
                            bodies[mid] = mail
        size = (
            GOSSIP_ENVELOPE_BYTES
            + sum(
                UID_BYTES + RECORD_BYTES * len(diff)
                for diff in updates.values()
            )
            + sum(mail.size_bytes for mail in bodies.values())
            + sum(
                UID_BYTES * len(mids) for mids in want.values()
            )
        )
        self.count("gossip_acks")
        self._send_gossip(
            here, frm, ("ack", here, updates, bodies, want), size
        )

    def _handle_ack(
        self, here: str, frm: str, updates, bodies, want
    ) -> None:
        """Initiator side: the exchange answered — merge the peer's
        records, then push the bodies it asked for."""
        self._outstanding.pop((here, frm), None)
        self._fails.pop((here, frm), None)
        for uid in sorted(updates):
            self._apply_records(here, uid, updates[uid], bodies)
        if want:
            push_updates: dict[int, dict] = {}
            push_bodies: dict = {}
            for uid in sorted(want):
                if here not in self._sets.get(uid, ()):
                    continue
                mine = self._state(here, uid).stages
                have = {
                    mid: mine[mid]
                    for mid in want[uid]
                    if mid in mine and mid in self._mail_records
                }
                if have:
                    push_updates[uid] = have
                    for mid in sorted(have):
                        push_bodies[mid] = self._mail_records[mid]
            if push_updates:
                size = (
                    GOSSIP_ENVELOPE_BYTES
                    + sum(
                        UID_BYTES + RECORD_BYTES * len(records)
                        for records in push_updates.values()
                    )
                    + sum(
                        mail.size_bytes
                        for mail in push_bodies.values()
                    )
                )
                self.count("gossip_pushes")
                self._send_gossip(
                    here,
                    frm,
                    ("push", here, push_updates, push_bodies),
                    size,
                )
        self._nudge()

    def _handle_push(self, here: str, frm: str, updates, bodies):
        for uid in sorted(updates):
            self._apply_records(here, uid, updates[uid], bodies)
        self._nudge()

    def __repr__(self) -> str:
        return (
            f"<ReplicationService factor={self.config.factor} "
            f"quorum={self.quorum} mailboxes={len(self._sets)} "
            f"dirty={len(self._dirty)}>"
        )
