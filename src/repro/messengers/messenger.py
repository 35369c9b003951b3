"""The Messenger: an autonomous self-migrating computation.

A Messenger is "a message with its own identity and behavior" (§1).  Its
migrating state is exactly:

* its compiled behavior (not carried on hops — the shared-filesystem
  optimization of §4 lets daemons load code locally);
* its *Messenger variables* (private state, §2.1);
* its interpreter frame (program counter + operand stack);
* its local virtual time.

Replication (``hop`` over several links, ``create(ALL)``) clones all of
the above.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, Optional

from ..mp.buffers import estimate_size
from .logical import LogicalLink, LogicalNode
from .mcl.bytecode import Program
from .mcl.vm import Frame

__all__ = ["Messenger"]

_mids = itertools.count(1)

#: Fixed overhead of a migrating Messenger beyond its variables: frame,
#: identity, virtual-time stamp (bytes).
_HEADER_BYTES = 64


class Messenger:
    """One autonomous computation navigating the logical network."""

    __slots__ = (
        "id",
        "program",
        "frame",
        "variables",
        "vt",
        "node",
        "last_link",
        "parent_id",
        "alive",
        "suspended",
        "active",
        "hops",
        "instructions_executed",
    )

    def __init__(
        self,
        program: Program,
        variables: Optional[dict] = None,
        vt: float = 0.0,
        parent_id: Optional[int] = None,
    ):
        self.id = next(_mids)
        self.program = program
        self.frame = Frame(program)
        self.variables: dict[str, Any] = dict(variables or {})
        #: Local virtual time (§2.2).
        self.vt = vt
        #: The logical node the Messenger currently occupies.
        self.node: Optional[LogicalNode] = None
        #: Name of the last traversed link — the ``$last`` network
        #: variable (§2.1).
        self.last_link: Optional[str] = None
        self.parent_id = parent_id
        self.alive = True
        #: True while parked on the conservative virtual-time queue —
        #: suspended Messengers do not count toward the active total.
        self.suspended = False
        #: True while counted in the system's active total; maintained
        #: by ``MessengersSystem.activate``/``deactivate`` so the
        #: accounting stays correct when crash recovery and a daemon
        #: both try to retire the same Messenger.
        self.active = False
        #: Lifetime statistics.
        self.hops = 0
        self.instructions_executed = 0

    # -- replication -----------------------------------------------------------

    def clone(self) -> "Messenger":
        """Replica with fresh identity and deep-copied variables.

        Deep copy matters: each replica must own its data (e.g. a matrix
        block in a messenger variable) so divergent execution cannot
        alias.
        """
        replica = Messenger(
            self.program,
            copy.deepcopy(self.variables),
            vt=self.vt,
            parent_id=self.parent_id,
        )
        replica.frame = self.frame.clone()
        replica.last_link = self.last_link
        replica.hops = self.hops
        replica.instructions_executed = self.instructions_executed
        return replica

    # -- migration accounting ------------------------------------------------------

    def state_bytes(self) -> int:
        """Bytes that migrate on a hop: variables + header, no code and
        no marshalling copies (the zero-copy property of §2.1)."""
        return _HEADER_BYTES + estimate_size(self.variables)

    def place(self, node: LogicalNode, via: Optional[LogicalLink]) -> None:
        """Arrive at ``node``, optionally via a traversed link."""
        self.node = node
        if via is not None:
            self.last_link = via.display_name
        self.hops += 1

    def kill(self) -> None:
        self.alive = False
        self.node = None

    def __repr__(self) -> str:
        where = self.node.display_name if self.node else "in transit"
        return (
            f"<Messenger #{self.id} {self.program.name!r} at {where} "
            f"vt={self.vt}>"
        )
