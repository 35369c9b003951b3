"""The MCL bytecode interpreter.

A daemon runs one :class:`Frame` per Messenger.  :func:`run` executes
instructions until the Messenger reaches a preemption point — a
navigational statement, a virtual-time suspension, or termination — and
returns the corresponding :class:`~.bytecode.Command`.  This implements
the paper's *modified non-preemptive scheduling policy* (§2.1): between
preemption points a Messenger runs atomically, which is what lets
critical sections be written as plain statement sequences.

Frames are cheaply cloneable; cloning is how ``hop`` over multiple links
and ``create(ALL)`` replicate an in-flight computation (§2.1).

One loop executes the bytecode.  It first resolves a program's
instructions to a precomputed table of ``(int_opcode, arg)`` pairs —
LOAD/STORE are split by scope at build time (messenger- vs
node-variable membership is static per program), BINOP/UNOP are
specialised per operator — and then interprets with ``pc``/``stack``
held in loop locals.  When per-opcode counts are requested
(``opcounts`` is not None) the same loop also counts each instruction
by its int opcode; :data:`OPCODE_NAMES` maps those back to the bytecode
names the ``mcl.vm.instructions{opcode}`` metric is labelled with.
Counting never changes what executes or the ``instructions`` charged,
so simulated interpretation time is bit-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .bytecode import (
    CreateCommand,
    CreateItemSpec,
    Command,
    DeleteCommand,
    DoneCommand,
    EXPR,
    HopCommand,
    Program,
    SchedCommand,
    UNNAMED_KIND,
)

__all__ = ["Frame", "MclRuntimeError", "OPCODE_NAMES", "run"]


class MclRuntimeError(RuntimeError):
    """An error raised while interpreting a Messenger script."""


def _budget_exceeded(name: str, max_instructions: int) -> MclRuntimeError:
    """The runaway-script guard's error, shared by both backends."""
    return MclRuntimeError(
        f"{name}: exceeded {max_instructions} instructions "
        "without reaching a preemption point (infinite loop?)"
    )


@dataclass(slots=True)
class Frame:
    """Execution state of one Messenger: program counter + operand stack.

    The Messenger's variables live outside the frame (on the
    :class:`~repro.messengers.messenger.Messenger`) because they are
    state that migrates; the frame is the interpreter's transient view.
    """

    program: Program
    pc: int = 0
    stack: list = field(default_factory=list)
    #: Resumption hint for the closures backend
    #: (:mod:`repro.messengers.mcl.closures`): the basic-block index to
    #: re-enter after a yield.  ``-1`` means "derive from ``pc``" — the
    #: int-opcode interpreter never sets it, so frames migrate freely
    #: between backends (``pc`` stays the source of truth; the hint is
    #: validated against it before use).
    block: int = -1

    def clone(self) -> "Frame":
        """Duplicate for replication; stack contents are shallow-copied
        (at preemption points the stack holds at most small scalars)."""
        return Frame(self.program, self.pc, list(self.stack), self.block)


def _truthy(value: Any) -> bool:
    """C truthiness: 0 / 0.0 / None / "" are false."""
    if value is None:
        return False
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        return value != ""
    return bool(value)


def _coerce_index(index: Any) -> Any:
    """Float indices from MCL arithmetic index like C ints."""
    if isinstance(index, float) and index.is_integer():
        return int(index)
    return index


def _binop(op: str, left: Any, right: Any) -> Any:
    try:
        if op == "[]":
            return left[_coerce_index(right)]
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if isinstance(left, int) and isinstance(right, int):
                return left // right  # C integer division
            return left / right
        if op == "%":
            return left % right
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if op == "<":
            return 1 if left < right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">=":
            return 1 if left >= right else 0
    except (TypeError, ZeroDivisionError, IndexError, KeyError) as error:
        raise MclRuntimeError(f"{op} failed: {error}") from error
    raise MclRuntimeError(f"unknown binary operator {op!r}")


def _nav_name(value: Any) -> str:
    """Coerce a spec expression result to a node/link name."""
    if isinstance(value, str):
        return value
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


# -- fast dispatch table -----------------------------------------------------
#
# Integer opcodes for the precomputed per-program dispatch table.  The
# split LOAD/STORE variants bake the (static) scope decision into the
# table; the BINOP variants bake the operator in.

_OP_CONST = 0
_OP_LOAD_M = 1  # messenger-scoped variable
_OP_LOAD_N = 2  # node-scoped variable
_OP_STORE_M = 3
_OP_STORE_N = 4
_OP_ADD = 5
_OP_SUB = 6
_OP_MUL = 7
_OP_DIV = 8
_OP_MOD = 9
_OP_EQ = 10
_OP_NE = 11
_OP_LT = 12
_OP_GT = 13
_OP_LE = 14
_OP_GE = 15
_OP_INDEX = 16  # BINOP "[]"
_OP_JMP = 17
_OP_JF = 18
_OP_POP = 19
_OP_CALL = 20
_OP_NEG = 21
_OP_NOT = 22
_OP_LOADNET = 23
_OP_STORE_INDEX = 24
_OP_RET_NONE = 25
_OP_RET_VALUE = 26
_OP_SCHED = 27
_OP_HOP = 28
_OP_DELETE = 29
_OP_CREATE = 30

_BINOP_CODES = {
    "+": _OP_ADD,
    "-": _OP_SUB,
    "*": _OP_MUL,
    "/": _OP_DIV,
    "%": _OP_MOD,
    "==": _OP_EQ,
    "!=": _OP_NE,
    "<": _OP_LT,
    ">": _OP_GT,
    "<=": _OP_LE,
    ">=": _OP_GE,
    "[]": _OP_INDEX,
}

_SIMPLE_CODES = {
    "CONST": _OP_CONST,
    "LOADNET": _OP_LOADNET,
    "STORE_INDEX": _OP_STORE_INDEX,
    "JMP": _OP_JMP,
    "JF": _OP_JF,
    "POP": _OP_POP,
    "CALL": _OP_CALL,
    "SCHED": _OP_SCHED,
    "HOP": _OP_HOP,
    "DELETE": _OP_DELETE,
    "CREATE": _OP_CREATE,
}

#: Int opcode -> the bytecode name it executes: the label of
#: ``mcl.vm.instructions{opcode}`` for the counts :func:`run` keeps.
OPCODE_NAMES = {
    _OP_LOAD_M: "LOAD",
    _OP_LOAD_N: "LOAD",
    _OP_STORE_M: "STORE",
    _OP_STORE_N: "STORE",
    _OP_NEG: "UNOP",
    _OP_NOT: "UNOP",
    _OP_RET_NONE: "RET",
    _OP_RET_VALUE: "RET",
    **{code: "BINOP" for code in _BINOP_CODES.values()},
    **{code: name for name, code in _SIMPLE_CODES.items()},
}


def _build_dispatch(program: Program) -> list:
    """Resolve ``program`` to ``(int_opcode, arg)`` pairs, cached on the
    program (one build per compiled program for its whole lifetime)."""
    node_names = program.node_vars
    code = []
    for instr in program.instructions:
        op, arg = instr.op, instr.arg
        if op == "LOAD":
            code.append(
                (_OP_LOAD_N if arg in node_names else _OP_LOAD_M, arg)
            )
        elif op == "STORE":
            code.append(
                (_OP_STORE_N if arg in node_names else _OP_STORE_M, arg)
            )
        elif op == "BINOP":
            try:
                code.append((_BINOP_CODES[arg], arg))
            except KeyError:
                raise MclRuntimeError(
                    f"unknown binary operator {arg!r}"
                ) from None
        elif op == "UNOP":
            if arg == "-":
                code.append((_OP_NEG, arg))
            elif arg == "!":
                code.append((_OP_NOT, arg))
            else:
                raise MclRuntimeError(f"unknown unary op {arg!r}")
        elif op == "RET":
            code.append(
                (_OP_RET_VALUE if arg == "value" else _OP_RET_NONE, arg)
            )
        else:
            code.append((_SIMPLE_CODES[op], arg))
    program._dispatch = code
    return code


def run(
    frame: Frame,
    messenger_vars: dict,
    node_vars: dict,
    netvar: Callable[[str], Any],
    call_native: Callable[[str, list], Any],
    max_instructions: int = 1_000_000,
    opcounts: Optional[dict] = None,
) -> Command:
    """Interpret until the next preemption point.

    Parameters
    ----------
    frame:
        The Messenger's execution state (mutated in place).
    messenger_vars:
        Private variables carried by the Messenger (§2.1).
    node_vars:
        Variables of the current logical node, shared between Messengers.
    netvar:
        Resolver for ``$``-prefixed network variables.
    call_native:
        Invokes a registered native-mode function; runs atomically.
    max_instructions:
        Runaway-script guard.
    opcounts:
        Optional ``{int_opcode: count}`` dict, incremented per executed
        instruction (:data:`OPCODE_NAMES` labels the keys for the
        ``mcl.vm.instructions{opcode}`` metric; only requested when the
        attached registry opts into opcode counting, because the
        per-instruction increment is measurable overhead).

    Returns the :class:`Command` describing why execution stopped, with
    ``instructions`` set to the number of bytecode instructions executed
    (the daemon charges interpretation time from it).
    """
    program = frame.program
    code = program._dispatch
    if code is None:
        code = _build_dispatch(program)
    ncode = len(code)
    pc = frame.pc
    stack = frame.stack
    push = stack.append
    pop = stack.pop
    executed = 0

    # Local bindings of the opcode constants: LOAD_FAST in the dispatch
    # chain instead of a global lookup per comparison.
    op_const = _OP_CONST
    op_load_m = _OP_LOAD_M
    op_load_n = _OP_LOAD_N
    op_store_m = _OP_STORE_M
    op_store_n = _OP_STORE_N
    op_add = _OP_ADD
    op_sub = _OP_SUB
    op_mul = _OP_MUL
    op_div = _OP_DIV
    op_mod = _OP_MOD
    op_eq = _OP_EQ
    op_ne = _OP_NE
    op_lt = _OP_LT
    op_gt = _OP_GT
    op_le = _OP_LE
    op_ge = _OP_GE
    op_index = _OP_INDEX
    op_jmp = _OP_JMP
    op_jf = _OP_JF
    op_pop = _OP_POP
    op_call = _OP_CALL

    while True:
        if pc >= ncode:
            # Fell off the end of the program: implicit return.
            frame.pc = pc
            return DoneCommand(instructions=executed)
        if executed >= max_instructions:
            frame.pc = pc
            raise _budget_exceeded(program.name, max_instructions)
        op, arg = code[pc]
        pc += 1
        executed += 1
        if opcounts is not None:
            opcounts[op] = opcounts.get(op, 0) + 1

        if op == op_load_m:
            try:
                push(messenger_vars[arg])
            except KeyError:
                frame.pc = pc
                raise MclRuntimeError(
                    f"{program.name}: variable {arg!r} used before "
                    "assignment"
                ) from None
        elif op == op_const:
            push(arg)
        elif op == op_add:
            right = pop()
            try:
                stack[-1] = stack[-1] + right
            except (TypeError, IndexError, KeyError) as error:
                frame.pc = pc
                raise MclRuntimeError(f"{program.name}: {error}") from error
        elif op == op_lt:
            right = pop()
            try:
                stack[-1] = 1 if stack[-1] < right else 0
            except TypeError as error:
                frame.pc = pc
                raise MclRuntimeError(f"{program.name}: {error}") from error
        elif op == op_store_m:
            messenger_vars[arg] = pop()
        elif op == op_jf:
            if not pop():
                # _truthy(x) is equivalent to bool(x) for every value MCL
                # produces (C truthiness == Python truthiness here).
                pc = arg
        elif op == op_mul:
            right = pop()
            try:
                stack[-1] = stack[-1] * right
            except (TypeError, IndexError, KeyError) as error:
                frame.pc = pc
                raise MclRuntimeError(f"{program.name}: {error}") from error
        elif op == op_sub:
            right = pop()
            try:
                stack[-1] = stack[-1] - right
            except (TypeError, IndexError, KeyError) as error:
                frame.pc = pc
                raise MclRuntimeError(f"{program.name}: {error}") from error
        elif op == op_jmp:
            pc = arg
        elif op == op_mod:
            right = pop()
            try:
                stack[-1] = stack[-1] % right
            except (
                TypeError,
                ZeroDivisionError,
                IndexError,
                KeyError,
            ) as error:
                frame.pc = pc
                raise MclRuntimeError(f"{program.name}: {error}") from error
        elif op == op_div:
            right = pop()
            left = stack[-1]
            try:
                if isinstance(left, int) and isinstance(right, int):
                    stack[-1] = left // right  # C integer division
                else:
                    stack[-1] = left / right
            except (TypeError, ZeroDivisionError) as error:
                frame.pc = pc
                raise MclRuntimeError(f"{program.name}: {error}") from error
        elif op == op_eq:
            right = pop()
            stack[-1] = 1 if stack[-1] == right else 0
        elif op == op_ne:
            right = pop()
            stack[-1] = 1 if stack[-1] != right else 0
        elif op == op_gt:
            right = pop()
            try:
                stack[-1] = 1 if stack[-1] > right else 0
            except TypeError as error:
                frame.pc = pc
                raise MclRuntimeError(f"{program.name}: {error}") from error
        elif op == op_le:
            right = pop()
            try:
                stack[-1] = 1 if stack[-1] <= right else 0
            except TypeError as error:
                frame.pc = pc
                raise MclRuntimeError(f"{program.name}: {error}") from error
        elif op == op_ge:
            right = pop()
            try:
                stack[-1] = 1 if stack[-1] >= right else 0
            except TypeError as error:
                frame.pc = pc
                raise MclRuntimeError(f"{program.name}: {error}") from error
        elif op == op_index:
            right = pop()
            try:
                stack[-1] = stack[-1][_coerce_index(right)]
            except (TypeError, IndexError, KeyError) as error:
                frame.pc = pc
                raise MclRuntimeError(f"[] failed: {error}") from error
        elif op == op_load_n:
            try:
                push(node_vars[arg])
            except KeyError:
                frame.pc = pc
                raise MclRuntimeError(
                    f"{program.name}: variable {arg!r} used before "
                    "assignment"
                ) from None
        elif op == op_store_n:
            node_vars[arg] = pop()
        elif op == op_pop:
            pop()
        elif op == op_call:
            name, argc = arg
            if argc:
                if len(stack) < argc:
                    frame.pc = pc
                    raise MclRuntimeError(
                        f"stack underflow at pc={pc} in {program.name}"
                    )
                args = stack[-argc:]
                del stack[-argc:]
            else:
                args = []
            push(call_native(name, args))
        elif op == _OP_NEG:
            try:
                stack[-1] = -stack[-1]
            except TypeError as error:
                frame.pc = pc
                raise MclRuntimeError(f"{program.name}: {error}") from error
        elif op == _OP_NOT:
            stack[-1] = 0 if stack[-1] else 1
        elif op == _OP_LOADNET:
            push(netvar(arg))
        elif op == _OP_STORE_INDEX:
            value = pop()
            index = pop()
            container = pop()
            try:
                container[_coerce_index(index)] = value
            except (TypeError, IndexError, KeyError) as error:
                frame.pc = pc
                raise MclRuntimeError(
                    f"index assignment failed: {error}"
                ) from error
        elif op == _OP_RET_NONE:
            frame.pc = pc
            return DoneCommand(instructions=executed)
        elif op == _OP_RET_VALUE:
            frame.pc = pc
            return DoneCommand(instructions=executed, value=pop())
        elif op == _OP_SCHED:
            frame.pc = pc
            time_value = pop()
            if not isinstance(time_value, (int, float)):
                raise MclRuntimeError(
                    f"M_sched_time_{arg}: non-numeric time "
                    f"{time_value!r}"
                )
            return SchedCommand(
                instructions=executed, kind=arg, time=float(time_value)
            )
        elif op == _OP_HOP or op == _OP_DELETE:
            frame.pc = pc
            ll = _nav_name(pop()) if arg.ll_kind == EXPR else "*"
            ln = _nav_name(pop()) if arg.ln_kind == EXPR else "*"
            ctor = HopCommand if op == _OP_HOP else DeleteCommand
            return ctor(
                instructions=executed, ln=ln, ll=ll, ldir=arg.ldir
            )
        else:  # _OP_CREATE — _build_dispatch validates opcodes
            frame.pc = pc
            return _create_command(arg, pop, executed)


def _create_command(template, pop, executed: int) -> CreateCommand:
    """Resolve a CREATE template against the operand stack."""
    # Values were pushed item-by-item in template order; pop in
    # reverse (last item's last field is on top).
    resolved: list[CreateItemSpec] = []
    for item in reversed(template.items):
        values: dict[str, Any] = {}
        for fieldname in reversed(item.expr_fields):
            values[fieldname] = _nav_name(pop())
        resolved.append(
            CreateItemSpec(
                ln=(
                    values.get("ln")
                    if item.ln_kind == EXPR
                    else (None if item.ln_kind == UNNAMED_KIND else "*")
                ),
                ll=(
                    values.get("ll")
                    if item.ll_kind == EXPR
                    else (None if item.ll_kind == UNNAMED_KIND else "*")
                ),
                ldir=item.ldir,
                dn=(values.get("dn") if item.dn_kind == EXPR else "*"),
                dl=(values.get("dl") if item.dl_kind == EXPR else "*"),
                ddir=item.ddir,
            )
        )
    resolved.reverse()
    return CreateCommand(
        instructions=executed,
        items=resolved,
        all_daemons=template.all_daemons,
    )

