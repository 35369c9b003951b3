"""Bytecode representation for compiled MCL scripts.

The paper (§2.1) notes Messenger scripts "are compiled into a form of
byte code for more efficient transport and parsing".  Our bytecode is a
flat list of :class:`Instr` records executed by a stack VM
(:mod:`repro.messengers.mcl.vm`).  Navigation instructions carry
*templates* describing which spec fields are wildcards and which are
computed; computed values are evaluated onto the stack just before the
instruction.

The VM communicates with its daemon by returning :class:`Command`
objects at every preemption point (navigation, scheduling, termination)
— exactly the points at which the paper's modified non-preemptive
scheduler may switch Messengers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "Instr",
    "Program",
    "NavTemplate",
    "CreateTemplate",
    "CreateItemTemplate",
    "Command",
    "HopCommand",
    "CreateCommand",
    "CreateItemSpec",
    "DeleteCommand",
    "SchedCommand",
    "DoneCommand",
    "OPCODES",
]

#: All valid opcodes (documentation + validation).
OPCODES = frozenset(
    {
        "CONST",  # push constant
        "LOAD",  # push variable (messenger- or node-scoped)
        "STORE",  # pop into variable
        "LOADNET",  # push network variable ($address, $last, ...)
        "BINOP",  # pop two, push result ("[]" = subscript)
        "STORE_INDEX",  # pop value, index, container; container[index]=v
        "UNOP",  # pop one, push result
        "JMP",  # unconditional jump
        "JF",  # pop; jump if falsy
        "CALL",  # native function call; arg = (name, argc)
        "POP",  # discard top of stack
        "HOP",  # navigate; arg = NavTemplate
        "DELETE",  # navigate deleting links; arg = NavTemplate
        "CREATE",  # create nodes/links; arg = CreateTemplate
        "SCHED",  # virtual-time suspension; arg = "abs" | "dlt"
        "RET",  # terminate the script
    }
)


@dataclass
class Instr:
    """One bytecode instruction."""

    op: str
    arg: Any = None

    def __repr__(self) -> str:
        return f"{self.op} {self.arg!r}" if self.arg is not None else self.op


# -- navigation templates --------------------------------------------------

#: Field kinds within a template.
WILD = "wild"  # `*`
UNNAMED_KIND = "unnamed"  # `~`
EXPR = "expr"  # value is on the stack


@dataclass(frozen=True)
class NavTemplate:
    """Static shape of a hop/delete spec.

    ``ln_kind``/``ll_kind`` say whether the node/link fields are
    wildcards or stack-supplied values; ``ldir`` is always literal.
    Stack order (pushed first → last): ln value (if expr), ll value
    (if expr).
    """

    ln_kind: str = WILD
    ll_kind: str = WILD
    ldir: str = "*"


@dataclass(frozen=True)
class CreateItemTemplate:
    """Static shape of one create item (six fields)."""

    ln_kind: str = UNNAMED_KIND
    ll_kind: str = UNNAMED_KIND
    ldir: str = "*"
    dn_kind: str = WILD
    dl_kind: str = WILD
    ddir: str = "*"

    @property
    def expr_fields(self) -> tuple:
        """Which value fields are stack-supplied, in push order."""
        fields = []
        if self.ln_kind == EXPR:
            fields.append("ln")
        if self.ll_kind == EXPR:
            fields.append("ll")
        if self.dn_kind == EXPR:
            fields.append("dn")
        if self.dl_kind == EXPR:
            fields.append("dl")
        return tuple(fields)


@dataclass(frozen=True)
class CreateTemplate:
    items: tuple
    all_daemons: bool = False


# -- commands (VM → daemon) -------------------------------------------------------


@dataclass
class Command:
    """Base class for VM yields; ``instructions`` is the count executed
    since the previous yield (the daemon charges interpretation cost
    from it)."""

    instructions: int = 0


@dataclass
class HopCommand(Command):
    """Replicate to all matching neighbors; original ceases (§2.1)."""

    ln: Any = "*"
    ll: Any = "*"
    ldir: str = "*"


@dataclass
class DeleteCommand(Command):
    """Like hop, but deletes traversed links (and orphaned nodes)."""

    ln: Any = "*"
    ll: Any = "*"
    ldir: str = "*"


@dataclass
class CreateItemSpec:
    """One fully resolved create item."""

    ln: Any = None  # None = unnamed
    ll: Any = None
    ldir: str = "*"
    dn: Any = "*"
    dl: Any = "*"
    ddir: str = "*"


@dataclass
class CreateCommand(Command):
    items: list = field(default_factory=list)
    all_daemons: bool = False


@dataclass
class SchedCommand(Command):
    """``M_sched_time_abs`` / ``M_sched_time_dlt`` (§2.2)."""

    kind: str = "abs"  # "abs" | "dlt"
    time: float = 0.0


@dataclass
class DoneCommand(Command):
    """Script finished; the Messenger ceases to exist."""

    value: Any = None


class Program:
    """A compiled Messenger behavior."""

    def __init__(
        self,
        name: str,
        params: list,
        node_vars: frozenset,
        instructions: list,
        source: Optional[str] = None,
    ):
        self.name = name
        self.params = list(params)
        self.node_vars = frozenset(node_vars)
        self.instructions = list(instructions)
        self.source = source
        #: Precomputed ``(int_opcode, arg)`` dispatch table, built lazily
        #: by the VM on first execution (the VM owns the opcode mapping).
        self._dispatch: Optional[list] = None
        #: The generated function of the closures backend
        #: (:mod:`repro.messengers.mcl.closures`), built lazily on first
        #: execution.
        self._closures: Any = None
        for instr in self.instructions:
            if instr.op not in OPCODES:
                raise ValueError(f"bad opcode {instr.op!r}")

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<Program {self.name!r} ({len(self.instructions)} instrs)>"
