"""repro.mailbox — durable daemon-routed mailboxes with a delivery
lifecycle (``sent -> delivered -> seen -> processed -> read``),
broadcast with per-recipient dedup, poll-mode consumers, and the
invariants that keep the exactly-once story honest under faults and
churn.  See DESIGN.md row 14 and the "Mailboxes & churn" section of the
README."""

from .core import (
    Mail,
    Mailbox,
    MailboxConfig,
    MailboxService,
    NoLiveDaemonError,
)
from .invariants import NoDoubleRead, NoLostMail
from .natives import register_mailbox_natives

__all__ = [
    "Mail",
    "Mailbox",
    "MailboxConfig",
    "MailboxService",
    "NoDoubleRead",
    "NoLiveDaemonError",
    "NoLostMail",
    "register_mailbox_natives",
]
