"""Durable per-node mailboxes with an explicit delivery lifecycle.

The paper's Messengers carry computation to where state lives, but the
communication they perform dies with the run.  This layer adds what the
delegate/butlers systems are built around: a *persistent* mailbox per
logical node, written through the daemons, surviving host crashes,
restarts, and graceful churn (join/leave), with every piece of mail
walking an explicit lifecycle::

    sent -> delivered -> seen -> processed -> read

Durability model: each daemon syncs its mail spool to stable storage at
delivery time (the Maildir/SQLite idiom of the related repos), so the
spool — :class:`Mailbox` contents plus the in-flight ledger — survives
any crash.  The simulation keeps that durable state in the
:class:`MailboxService` registry; what rides the simulated wire (and can
be lost, duplicated, or die with a host) is the *delivery*, and the
service replays undelivered mail from the ledger when a failure is
announced — the same knowledge-phase discipline as the hop-boundary
checkpoints in :mod:`repro.messengers.system`.

Exactly-once delivery = at-least-once redispatch + per-mailbox dedup
(by mail id, and by broadcast id for fan-outs).  Exactly-once *read* is
tracked per recipient: a second read of the same mail is refused and
counted, which the ``no-double-read`` invariant turns into a failure.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from ..des import SimulationError, Store
from ..messengers.logical import LogicalNode
from ..netsim import Packet

__all__ = [
    "LIFECYCLE",
    "Mail",
    "Mailbox",
    "MailboxConfig",
    "MailboxService",
    "NoLiveDaemonError",
]

#: The delivery lifecycle, in order.  A mail's status only moves right.
LIFECYCLE = ("sent", "delivered", "seen", "processed", "read")

_STAGE = {status: index for index, status in enumerate(LIFECYCLE)}

#: Fixed per-mail wire overhead (headers, envelope) in bytes.
ENVELOPE_BYTES = 96


class NoLiveDaemonError(SimulationError):
    """Every daemon is dead or retired: there is nowhere to send mail
    from (or forward it to).  Raised instead of letting the send path
    fail with an unhelpful iteration error so callers — and the
    invariant monitor — can tell 'cluster is gone' from a code bug."""


@dataclass
class Mail:
    """One piece of mail.  ``body`` is deep-copied at send time, so the
    recipient can never observe later mutations by the sender (the
    payload isolation message passing pays for and Messengers avoid —
    mailboxes are message passing, so they pay)."""

    id: int
    sender: str
    to_uid: int
    subject: str
    body: Any
    sent_s: float
    #: Shared by all copies of one broadcast; None for point-to-point.
    bcast_id: Optional[int] = None
    #: Conversation correlation: a request carries its own id here and
    #: every reply echoes it, so multi-round exchanges (sagas, RPC over
    #: mail) can be stitched together.  None outside conversations.
    corr_id: Optional[int] = None
    #: Uid of the sender's node, for routing replies; None when the
    #: sender was the user (no node to reply to).
    reply_uid: Optional[int] = None
    status: str = "sent"
    delivered_s: Optional[float] = None
    read_count: int = 0
    #: Last dispatch endpoints (for failure replay).
    src_daemon: str = ""
    dst_daemon: str = ""
    #: Logical write origin, stamped once at first dispatch: the daemon
    #: that coordinated the write and its per-(mailbox, origin) write
    #: sequence number — the version-vector component replicas track.
    origin: str = ""
    oseq: int = 0

    @property
    def stage(self) -> int:
        return _STAGE[self.status]

    def advance(self, status: str) -> bool:
        """Move the lifecycle forward; backwards moves are refused."""
        if _STAGE[status] <= self.stage:
            return False
        self.status = status
        return True

    @property
    def size_bytes(self) -> int:
        return ENVELOPE_BYTES + len(self.subject) + len(repr(self.body))

    def __repr__(self) -> str:
        return (
            f"<Mail #{self.id} {self.sender!r}->uid{self.to_uid} "
            f"{self.status}>"
        )


class Mailbox:
    """The durable spool of one logical node.

    Mail is kept in delivery order; dedup happens here (by mail id and
    by broadcast id), which is what turns the transport's at-least-once
    into exactly-once.  The mailbox follows its node through re-homing
    and daemon churn — it is keyed by the node's uid, not by any host.
    """

    def __init__(self, service: "MailboxService", node: LogicalNode):
        self.service = service
        self.node = node
        self._mails: dict[int, Mail] = {}
        self._order: list[int] = []
        self._bcasts_seen: set[int] = set()
        self._read_ids: set[int] = set()
        #: Wake tokens for poll consumers (one put per delivery).
        self._arrivals: Store = Store(service.sim)

    # -- delivery (service-internal) ---------------------------------------

    def deliver(self, mail: Mail, now: float) -> bool:
        """Accept ``mail`` into the spool; returns False on a duplicate."""
        if mail.id in self._mails:
            return False
        if mail.bcast_id is not None:
            if mail.bcast_id in self._bcasts_seen:
                return False
            self._bcasts_seen.add(mail.bcast_id)
        self._mails[mail.id] = mail
        self._order.append(mail.id)
        mail.advance("delivered")
        mail.delivered_s = now
        self._arrivals.put(mail)
        return True

    # -- recipient API ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    @property
    def mails(self) -> list[Mail]:
        return [self._mails[mid] for mid in self._order]

    def unseen(self) -> list[Mail]:
        return [m for m in self.mails if m.stage < _STAGE["seen"]]

    def get(self, mail_id: int) -> Mail:
        return self._mails[mail_id]

    def mark_seen(self, mail: Mail) -> None:
        if mail.advance("seen"):
            self.service.count("seen")
            self.service._note_stage(self, mail)

    def mark_processed(self, mail: Mail) -> None:
        if mail.advance("processed"):
            self.service.count("processed")
            self.service._note_stage(self, mail)

    def read(self, mail: Mail) -> Any:
        """Consume ``mail`` exactly once; a second read is refused.

        Returns the body.  The double read is recorded (counter +
        ``read_count``) so the ``no-double-read`` invariant can fail the
        run instead of the caller having to remember to check.
        """
        if mail.id in self._read_ids:
            mail.read_count += 1
            self.service.count("double_reads")
            raise ValueError(
                f"mail #{mail.id} was already read from mailbox "
                f"uid{self.node.uid}"
            )
        self._read_ids.add(mail.id)
        mail.read_count += 1
        mail.advance("read")
        self.service.count("read")
        self.service._read_log.append((self.node.uid, mail.id))
        self.service._note_stage(self, mail)
        return mail.body

    def __repr__(self) -> str:
        return (
            f"<Mailbox uid{self.node.uid} "
            f"({self.node.display_name}) mails={len(self._order)}>"
        )


@dataclass(frozen=True)
class MailboxConfig:
    """Typed configuration for the mailbox layer (facade plumbing).

    ``poll_interval_s`` is the default cadence of poll-mode consumers
    (:meth:`MailboxService.send` creates the recipient's mailbox on
    first use).  ``replication`` hangs a
    :class:`~repro.replication.ReplicationConfig` off the layer: with a
    factor >= 2 every mailbox is spread over a replica set of daemons,
    writes are quorum-acked, and gossip anti-entropy keeps the replicas
    convergent across partitions (``None`` — the default — arms
    nothing: the single-copy dispatch path is byte-identical to a
    replication-free build).
    """

    poll_interval_s: float = 0.05
    replication: Optional[Any] = None

    def __post_init__(self):
        if self.poll_interval_s <= 0:
            raise ValueError(
                f"poll interval must be positive, got {self.poll_interval_s}"
            )
        if self.replication is not None:
            from ..replication import ReplicationConfig

            if not isinstance(self.replication, ReplicationConfig):
                raise TypeError(
                    "replication must be a ReplicationConfig or None, "
                    f"got {self.replication!r}"
                )


NodeRef = Union[LogicalNode, int, str]


class MailboxService:
    """Mailboxes + delivery pumps + the in-flight ledger for one system.

    One service spans the cluster.  Construction arms one mail pump per
    daemon (parked, costs nothing until mail flows), opts the mailbox
    port into reliable delivery, and registers for failure
    announcements so undelivered mail is replayed once a crash becomes
    known — after the messengers layer has re-homed the victims' nodes
    (listener order: the system registered first).
    """

    port_name = "mailbox"

    def __init__(self, system, config: Optional[MailboxConfig] = None):
        self.system = system
        self.sim = system.sim
        self.config = config or MailboxConfig()
        self._ids = itertools.count(1)
        self._bcast_ids = itertools.count(1)
        self._boxes: dict[int, Mailbox] = {}
        #: In-flight ledger: durable record of mail not yet delivered.
        self._pending: dict[int, Mail] = {}
        #: Event counters (mirrors FaultInjector.counts).
        self.counts: dict[str, int] = {}
        #: Delivery latencies in sent order (seconds), for the bench.
        self.latencies: list[float] = []
        #: (node uid, mail id) in read order — the run's read set.
        self._read_log: list[tuple[int, int]] = []
        self._consumers: list = []
        self._pumps_started: set[str] = set()
        #: Replica sets + gossip anti-entropy (None = single-copy mode,
        #: byte-identical to a replication-free build).
        self.replication = None
        repl_config = self.config.replication
        if repl_config is not None and repl_config.factor >= 2:
            from ..replication import ReplicationService

            self.replication = ReplicationService(self, repl_config)
        system.network.set_reliable(self.port_name)
        system.network.add_failure_listener(self._on_host_failure)
        system.mailboxes = self
        for daemon in system.daemons.values():
            self._start_pump(daemon)

    # -- counters ------------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def lifecycle_counts(self) -> dict[str, int]:
        """How many mails have reached each lifecycle stage (cumulative:
        a read mail was also sent, delivered, seen, and processed)."""
        totals = dict.fromkeys(LIFECYCLE, 0)
        mails = list(self._pending.values())
        for box in self._boxes.values():
            mails.extend(box.mails)
        for mail in mails:
            for status in LIFECYCLE[: mail.stage + 1]:
                totals[status] += 1
        return totals

    def read_digest(self) -> str:
        """Content digest of the read set, for bit-identity assertions."""
        blob = repr(self._read_log).encode("utf-8")
        return hashlib.sha1(blob).hexdigest()

    def lifecycle_digest(self) -> str:
        """Digest of every mailbox's full lifecycle state.

        Covers ``(uid, mail id, stage)`` for all delivered mail — the
        per-mailbox shape the anti-entropy layer gossips between
        replicas (:meth:`~repro.replication.ReplicaState.digest` is the
        per-replica analogue), and the thing that must agree across the
        cluster once a partition heals and gossip quiesces.
        """
        entries = []
        for uid in sorted(self._boxes):
            box = self._boxes[uid]
            entries.extend(
                (uid, mid, box._mails[mid].stage)
                for mid in sorted(box._mails)
            )
        return hashlib.sha1(repr(entries).encode("utf-8")).hexdigest()

    def _note_stage(self, box: "Mailbox", mail: Mail) -> None:
        """Tell the home replica about a lifecycle advancement."""
        if self.replication is not None:
            self.replication.note_stage(box.node.uid, mail)

    # -- mailbox access -------------------------------------------------------

    def _resolve(self, node: NodeRef) -> LogicalNode:
        if isinstance(node, LogicalNode):
            return node
        if isinstance(node, int):
            box = self._boxes.get(node)
            if box is not None:
                return box.node
            for candidate in self.system.logical.nodes:
                if candidate.uid == node:
                    return candidate
            raise KeyError(f"no logical node with uid {node}")
        matches = sorted(
            self.system.logical.find_named(node), key=lambda n: n.uid
        )
        if not matches:
            raise KeyError(f"no logical node named {node!r}")
        return matches[0]

    def mailbox(self, node: NodeRef) -> Mailbox:
        """The durable mailbox of ``node`` (created on first access)."""
        resolved = self._resolve(node)
        box = self._boxes.get(resolved.uid)
        if box is None:
            box = Mailbox(self, resolved)
            self._boxes[resolved.uid] = box
        return box

    @property
    def mailboxes(self) -> list[Mailbox]:
        return [self._boxes[uid] for uid in sorted(self._boxes)]

    # -- sending ---------------------------------------------------------------

    def _sender_label(self, frm: Optional[NodeRef]) -> tuple[str, str]:
        """(label, origin daemon) for a send; ``frm=None`` = the user."""
        if frm is None:
            return "user", self._first_live_daemon()
        node = self._resolve(frm)
        origin = node.daemon
        daemon = self.system.daemons.get(origin)
        if daemon is None or daemon.dead or daemon.retired:
            origin = self._first_live_daemon()
        return node.display_name, origin

    def _first_live_daemon(self) -> str:
        for name in self.system.daemon_names:
            daemon = self.system.daemons[name]
            if not daemon.dead and not daemon.retired:
                return name
        raise NoLiveDaemonError(
            "no live daemon to send mail from: all "
            f"{len(self.system.daemon_names)} daemon(s) are dead or "
            "retired"
        )

    def send(
        self,
        to: NodeRef,
        body: Any,
        subject: str = "",
        frm: Optional[NodeRef] = None,
        corr_id: Optional[int] = None,
    ) -> Mail:
        """Post one mail to ``to``'s mailbox; returns the Mail record.

        The send is asynchronous: the record enters the in-flight
        ledger immediately (status ``sent``) and rides the wire to the
        daemon currently homing the recipient's node.  ``corr_id``
        threads the mail into an existing conversation (see
        :meth:`request` / :meth:`reply`).
        """
        node = self._resolve(to)
        self.mailbox(node)
        sender, origin = self._sender_label(frm)
        mail = Mail(
            id=next(self._ids),
            sender=sender,
            to_uid=node.uid,
            subject=subject,
            body=copy.deepcopy(body),
            sent_s=self.sim.now,
            corr_id=corr_id,
            reply_uid=self._resolve(frm).uid if frm is not None else None,
        )
        self._pending[mail.id] = mail
        self.count("sent")
        self._dispatch(mail, origin)
        return mail

    def request(
        self,
        to: NodeRef,
        body: Any,
        subject: str = "",
        frm: Optional[NodeRef] = None,
    ) -> Mail:
        """Open a conversation: send a mail whose own id is the
        correlation id every :meth:`reply` in the exchange will carry."""
        mail = self.send(to, body, subject=subject, frm=frm)
        # The id is only known after `send` mints it; delivery happens
        # strictly later in virtual time, so stamping here is safe.
        mail.corr_id = mail.id
        self.count("requests")
        return mail

    def reply(
        self,
        to_mail: Mail,
        body: Any,
        subject: str = "",
    ) -> Mail:
        """Answer ``to_mail`` within its conversation.

        Routes to the original sender's node (wherever it now lives)
        and echoes the conversation's correlation id.  Raises if the
        mail came from the user (no node to reply to).
        """
        if to_mail.reply_uid is None:
            raise ValueError(
                f"mail #{to_mail.id} has no reply address "
                "(sent by the user, not a node)"
            )
        corr = to_mail.corr_id if to_mail.corr_id is not None else to_mail.id
        self.count("replies")
        return self.send(
            to_mail.reply_uid,
            body,
            subject=subject or f"re: {to_mail.subject}",
            frm=to_mail.to_uid,
            corr_id=corr,
        )

    def broadcast(
        self,
        body: Any,
        subject: str = "",
        frm: Optional[NodeRef] = None,
        include_sender: bool = False,
    ) -> list[Mail]:
        """Post one mail to every registered mailbox (fan-out).

        Each recipient gets its own Mail record; all copies share one
        broadcast id, which the mailboxes dedup on — a replayed copy
        can never be delivered twice to the same recipient.
        """
        sender, origin = self._sender_label(frm)
        sender_uid = (
            self._resolve(frm).uid if frm is not None else None
        )
        bcast = next(self._bcast_ids)
        self.count("broadcasts")
        mails = []
        for uid in sorted(self._boxes):
            if not include_sender and uid == sender_uid:
                continue
            mail = Mail(
                id=next(self._ids),
                sender=sender,
                to_uid=uid,
                subject=subject,
                body=copy.deepcopy(body),
                sent_s=self.sim.now,
                bcast_id=bcast,
            )
            self._pending[mail.id] = mail
            self.count("sent")
            self._dispatch(mail, origin)
            mails.append(mail)
        return mails

    # -- delivery -----------------------------------------------------------

    def _dispatch(self, mail: Mail, origin: str) -> None:
        """Put ``mail`` on the wire toward its recipient's home daemon.

        With replication armed the write fans out to the whole replica
        set instead (quorum-acked at the receiving pumps); without it
        this is the single-copy path, byte-identical to a
        replication-free build.
        """
        if self.replication is not None:
            self.replication.dispatch(mail, origin)
            return
        box = self._boxes[mail.to_uid]
        dest = box.node.daemon
        mail.src_daemon = origin
        mail.dst_daemon = dest
        self.system.network.post(Packet(
            src=origin,
            dst=dest,
            port=self.port_name,
            payload=("mail", mail),
            size_bytes=mail.size_bytes,
        ))

    def _start_pump(self, daemon) -> None:
        if daemon.name in self._pumps_started:
            return
        self._pumps_started.add(daemon.name)
        self.sim.process(self._mail_pump(daemon), daemon=True)

    def _mail_pump(self, daemon):
        """Per-daemon delivery pump: spool arriving mail durably.

        Mail addressed to a node this daemon no longer homes (re-homed
        by a crash, or the daemon retired under it) is forwarded to the
        node's current home — the mailbox follows the node, always.
        """
        port = daemon.host.port(self.port_name)
        costs = self.system.costs
        while True:
            packet = mail = None  # park holding no work item
            packet = yield port.get()
            kind, mail = packet.payload
            if kind == "repl":
                yield daemon.host.busy(
                    costs.hop_dispatch_s,
                    category="dispatch",
                    label="mail.gossip",
                )
                self.replication.on_gossip(daemon.name, mail)
                continue
            if kind == "rmail":
                yield daemon.host.busy(
                    costs.hop_dispatch_s,
                    category="dispatch",
                    label="mail.replica",
                )
                self.replication.on_rmail(daemon.name, mail)
                continue
            box = self._boxes.get(mail.to_uid)
            if box is None:  # pragma: no cover - boxes are never dropped
                continue
            home = box.node.daemon
            if home != daemon.name or daemon.retired:
                target = (
                    home
                    if home != daemon.name
                    else self._first_live_daemon()
                )
                if target == daemon.name:
                    # Home is here but we are retired and also the only
                    # live candidate — impossible by retire_daemon's
                    # survivor requirement; deliver rather than spin.
                    pass
                else:
                    self.count("forwarded")
                    mail.src_daemon = daemon.name
                    mail.dst_daemon = target
                    self.system.network.post(Packet(
                        src=daemon.name,
                        dst=target,
                        port=self.port_name,
                        payload=packet.payload,
                        size_bytes=packet.size_bytes,
                    ))
                    continue
            yield daemon.host.busy(
                costs.hop_dispatch_s,
                category="dispatch",
                label="mail.deliver",
            )
            self._deliver_now(box, mail)

    def _deliver_now(self, box: Mailbox, mail: Mail) -> bool:
        """Spool ``mail`` into ``box`` at the current instant.

        The shared tail of every delivery path — the per-daemon pump,
        replica promotion after a crash, and gossip read-repair at the
        home replica — so ledger pop, counters, and latency accounting
        stay identical no matter which path completed the delivery.
        """
        self._pending.pop(mail.id, None)
        if box.deliver(mail, self.sim.now):
            self.count("delivered")
            self.latencies.append(self.sim.now - mail.sent_s)
            metrics = self.sim.obs
            if metrics is not None:
                metrics.count("mailbox.delivered")
            self._note_stage(box, mail)
            return True
        self.count("duplicates_suppressed")
        return False

    # -- failure / churn hooks ------------------------------------------------

    def _on_host_failure(self, host) -> None:
        """Replay undelivered mail once a crash is *known*.

        Runs after the messengers layer's failure listener (registration
        order), so victims' nodes are already re-homed: every ledger
        entry whose last dispatch touched the dead host is re-sent from
        a live daemon to the recipient's current home.  Per-mailbox
        dedup absorbs the copy that may still be in flight.

        With replication armed the replication layer handles the
        announcement instead: it promotes a surviving replica to home
        (the promoted daemon already holds the mail durably) and only
        falls back to ledger replay for mail no surviving replica ever
        acked.
        """
        name = host.name
        if self.replication is not None:
            self.replication.on_host_failure(name)
            return
        for mail in list(self._pending.values()):
            if name not in (mail.src_daemon, mail.dst_daemon):
                continue
            self.count("redispatched")
            self._dispatch(mail, self._first_live_daemon())

    def on_daemon_joined(self, name: str) -> None:
        """Churn hook (from MessengersSystem.add_daemon): arm a pump."""
        self._start_pump(self.system.daemons[name])

    def on_daemon_retired(self, name: str) -> None:
        """Churn hook (from MessengersSystem.retire_daemon).

        The leaver's nodes were just re-homed; ledger entries aimed at
        it are re-sent to the new homes.  The in-flight copies land on
        the retired pump and are forwarded — dedup absorbs whichever
        arrives second.
        """
        if self.replication is not None:
            self.replication.on_daemon_retired(name)
        for mail in list(self._pending.values()):
            if mail.dst_daemon != name:
                continue
            self.count("redispatched")
            self._dispatch(mail, self._first_live_daemon())

    # -- poll-mode consumers ----------------------------------------------------

    def consumer(
        self,
        node: NodeRef,
        handler: Callable[[Mail], Any],
        poll_interval_s: Optional[float] = None,
    ) -> Mailbox:
        """Attach a poll-mode consumer to ``node``'s mailbox.

        The consumer wakes at the first poll tick at-or-after each
        delivery (``k * interval``), then drains everything unseen:
        each mail is marked seen, handed to ``handler``, marked
        processed, and read — the full lifecycle, exactly once.  The
        wait for the tick is a foreground timeout, so a run cannot
        quiesce with delivered-but-unprocessed mail.
        """
        box = self.mailbox(node)
        interval = (
            poll_interval_s
            if poll_interval_s is not None
            else self.config.poll_interval_s
        )
        if interval <= 0:
            raise ValueError(
                f"poll interval must be positive, got {interval}"
            )
        self.sim.process(self._consume(box, handler, interval), daemon=True)
        self._consumers.append((box, handler))
        return box

    def _consume(self, box: Mailbox, handler, interval: float):
        while True:
            token = yield box._arrivals.get()
            if token.stage >= _STAGE["seen"]:
                continue  # already drained by an earlier batch
            ticks = math.floor(self.sim.now / interval + 1e-9) + 1
            wait = ticks * interval - self.sim.now
            if wait > 0:
                yield self.sim.timeout(wait)
            batch = box.unseen()
            if not batch:
                continue
            self.count("poll_batches")
            for mail in batch:
                box.mark_seen(mail)
                handler(mail)
                box.mark_processed(mail)
                box.read(mail)

    def __repr__(self) -> str:
        return (
            f"<MailboxService boxes={len(self._boxes)} "
            f"pending={len(self._pending)} "
            f"delivered={self.counts.get('delivered', 0)}>"
        )
