"""Replicated mailboxes: quorum writes + gossip anti-entropy.

The robustness layer the mobile-agent follow-up literature asks for:
each durable mailbox is spread over a replica set of daemons, writes
are quorum-acked through the existing reliable transport, and a
deterministic gossip driver read-repairs divergent replicas — so both
sides of a partition keep accepting mail and provably converge after
``heal``.  Hung off :class:`~repro.mailbox.MailboxConfig` via
:class:`ReplicationConfig`; ``None`` (or factor 1) arms nothing and is
byte-identical to a replication-free build.
"""

from .core import ReplicaState, ReplicationConfig, ReplicationService
from .invariants import QuorumLiveness, ReplicaConvergence

__all__ = [
    "QuorumLiveness",
    "ReplicaConvergence",
    "ReplicaState",
    "ReplicationConfig",
    "ReplicationService",
]
