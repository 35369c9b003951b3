"""Closures backend for the MCL VM: basic-block superinstructions.

The int-opcode interpreter in :mod:`.vm` pays one dispatch-loop
iteration per bytecode instruction.  This backend removes that loop on
hot paths: each :class:`~.bytecode.Program` is walked once, partitioned
into **basic blocks** (straight-line runs ending at a jump, a jump
target, or a preemption point — hop/delete/create/sched/return), and
every block is emitted as one Python function via ``exec``.  Inside a
block, runs of compute/variable/arith opcodes are *fused* into single
Python expressions over the variable dicts — a superinstruction — so
``acc = acc + i * 2 - (i % 3)`` executes as one generated statement
instead of seven interpreted opcodes.

Contract with the rest of the system (the bit-identity guarantee):

* the returned :class:`~.bytecode.Command` stream is exactly the
  interpreter's — same command types, same field values, and the same
  ``instructions`` counts (every instruction of a block is charged,
  exactly once, when the block runs), so the obs ledger's
  "interpretation" accounting is unchanged to the last bit;
* ``frame.pc`` and ``frame.stack`` are bit-identical to the
  interpreter's at every preemption point, so cloning (hop
  replication, checkpoints) and cross-backend migration both work:
  resumption re-enters at the basic block whose start is ``frame.pc``
  (``frame.block`` caches that index and is validated before use);
* native calls and network-variable reads happen at the same points in
  the same order, with the same argument values, and native exceptions
  propagate raw exactly as in the interpreter.

One deliberate, documented divergence, confined to error paths that
terminate the Messenger (no Command is returned, nothing is charged):
:class:`~.vm.MclRuntimeError` *message texts* for failed operations may
differ (the error class and the raise point in the program do not).
The ``max_instructions`` runaway guard stops on the interpreter's exact
instruction: a block the remaining budget cannot cover is handed to
:func:`.vm.run`.

This is the backend every daemon runs
(:data:`repro.messengers.daemon.VM_RUN`); the interpreter stays as the
reference implementation the differential and golden tests compare it
against.  When per-opcode counts are requested the shared reference
path (:func:`.vm._run_counting`) runs instead, exactly as in the
interpreter.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .bytecode import (
    Command,
    DeleteCommand,
    DoneCommand,
    EXPR,
    HopCommand,
    Program,
    SchedCommand,
)
from .vm import (
    Frame,
    MclRuntimeError,
    _OP_ADD,
    _OP_CALL,
    _OP_CONST,
    _OP_CREATE,
    _OP_DELETE,
    _OP_DIV,
    _OP_EQ,
    _OP_GE,
    _OP_GT,
    _OP_HOP,
    _OP_INDEX,
    _OP_JF,
    _OP_JMP,
    _OP_LE,
    _OP_LOADNET,
    _OP_LOAD_M,
    _OP_LOAD_N,
    _OP_LT,
    _OP_MOD,
    _OP_MUL,
    _OP_NE,
    _OP_NEG,
    _OP_NOT,
    _OP_POP,
    _OP_RET_NONE,
    _OP_RET_VALUE,
    _OP_SCHED,
    _OP_STORE_INDEX,
    _OP_STORE_M,
    _OP_STORE_N,
    _OP_SUB,
    _build_dispatch,
    _coerce_index,
    _create_command,
    _nav_name,
    _run_counting,
    run as _vm_run,
)

__all__ = ["run", "compile_blocks", "CompiledBlocks"]


# -- runtime helpers shared with the generated code --------------------------

#: Exception classes the interpreter converts to MclRuntimeError.
_ERRS = (TypeError, ZeroDivisionError, IndexError, KeyError)


def _div(left: Any, right: Any) -> Any:
    """The VM's ``/``: C integer division when both sides are ints."""
    if isinstance(left, int) and isinstance(right, int):
        return left // right
    return left / right


#: Opcodes that suspend the Messenger (the paper's preemption points).
_YIELD_OPS = frozenset({_OP_HOP, _OP_DELETE, _OP_CREATE, _OP_SCHED})

#: Opcodes that end a basic block.
_TERMINATORS = _YIELD_OPS | {_OP_JMP, _OP_JF, _OP_RET_NONE, _OP_RET_VALUE}

#: Fused binary arithmetic: opcode -> format string over (left, right).
_ARITH = {
    _OP_ADD: "({0} + {1})",
    _OP_SUB: "({0} - {1})",
    _OP_MUL: "({0} * {1})",
    _OP_MOD: "({0} % {1})",
    _OP_DIV: "_div({0}, {1})",
    _OP_INDEX: "({0})[_ci({1})]",
}

#: Fused comparisons: opcode -> boolean-context format string.  The
#: value form wraps this in ``(1 if ... else 0)`` exactly like the
#: interpreter; ``JF`` uses the boolean form directly.
_COMPARE = {
    _OP_EQ: "{0} == {1}",
    _OP_NE: "{0} != {1}",
    _OP_LT: "{0} < {1}",
    _OP_GT: "{0} > {1}",
    _OP_LE: "{0} <= {1}",
    _OP_GE: "{0} >= {1}",
}


class CompiledBlocks:
    """One program compiled to per-block closures.

    ``blocks[i]`` is ``(fn, count)``: the block's generated function and
    its static instruction count.  ``fn(frame, stack, M, N, netvar,
    call_native)`` returns ``(command_or_None, next_block_index)``.
    """

    __slots__ = ("blocks", "entry_pc", "block_of_pc", "ncode", "source")

    def __init__(self, blocks, entry_pc, block_of_pc, ncode, source):
        self.blocks = blocks
        self.entry_pc = entry_pc
        self.block_of_pc = block_of_pc
        self.ncode = ncode
        self.source = source


def _partition(code: list) -> list[tuple[int, int]]:
    """Split the dispatch table into basic-block ``[start, end)`` ranges.

    Leaders are pc 0, every jump target, and the instruction after any
    terminator; since a terminator always makes its successor a leader,
    each range contains at most one terminator — as its last entry.
    """
    ncode = len(code)
    leaders = {0}
    for pc, (op, arg) in enumerate(code):
        if op == _OP_JMP or op == _OP_JF:
            leaders.add(arg)
        if op in _TERMINATORS:
            leaders.add(pc + 1)
    starts = sorted(pc for pc in leaders if 0 <= pc < ncode)
    return [
        (start, starts[i + 1] if i + 1 < len(starts) else ncode)
        for i, start in enumerate(starts)
    ]


class _Sym:
    """One symbolic (not-yet-materialized) operand-stack entry."""

    __slots__ = ("expr", "pure", "cond")

    def __init__(self, expr: str, pure: bool, cond: Optional[str] = None):
        #: Python expression for the value.
        self.expr = expr
        #: Pure entries (literals, already-evaluated temps) can be
        #: deferred across stores/calls and can never raise.
        self.pure = pure
        #: Optional boolean-context form (comparisons), used by ``JF``.
        self.cond = cond


def _const_expr(value: Any) -> Optional[str]:
    """Literal source for a constant, or None if it must be hoisted."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    return None


class _BlockGen:
    """Generates the body of one basic-block function.

    Walks the block's ``(int_opcode, arg)`` pairs keeping a *symbolic*
    operand stack: pushes defer evaluation, pops splice the deferred
    expressions into the consumer, and only block exits / yields /
    mutation points materialize values.  Flush discipline (the ordering
    contract with the interpreter):

    * before any store (``STORE``/``STORE_INDEX``) or any call
      (``CALL``/``LOADNET``), every deferred *impure* entry — anything
      reading ``M``/``N`` or able to raise — is evaluated into a temp,
      so no read is reordered past a mutation;
    * at block exits and yields the remaining entries are appended to
      the real ``frame.stack`` in push order, so the frame's stack at
      every preemption point is bit-identical to the interpreter's.
    """

    def __init__(self, gen: "_ProgramGen", start: int, end: int):
        self.gen = gen
        self.start = start
        self.end = end
        #: (channel, line) pairs; "w" lines are grouped into try blocks
        #: that convert _ERRS to MclRuntimeError, "r" lines run bare
        #: (native calls and netvar reads must propagate raw).
        self.lines: list[tuple[str, str]] = []
        self.syms: list[_Sym] = []

    # -- emission ------------------------------------------------------------

    def w(self, line: str) -> None:
        self.lines.append(("w", line))

    def r(self, line: str) -> None:
        self.lines.append(("r", line))

    def temp(self) -> str:
        self.gen.ntemp += 1
        return f"_t{self.gen.ntemp}"

    # -- symbolic stack ------------------------------------------------------

    def push(self, expr: str, pure: bool = False, cond: Optional[str] = None):
        self.syms.append(_Sym(expr, pure, cond))

    def pop(self) -> _Sym:
        if self.syms:
            return self.syms.pop()
        # The logical stack extends below this block's pushes into the
        # real frame stack (short-circuit jumps carry values across
        # block boundaries).
        name = self.temp()
        self.w(f"{name} = stack.pop()")
        return _Sym(name, True)

    def materialize(self, sym: _Sym) -> str:
        """Evaluate ``sym`` into a temp now (no-op for pure entries)."""
        if sym.pure:
            return sym.expr
        name = self.temp()
        self.w(f"{name} = {sym.expr}")
        sym.expr = name
        sym.pure = True
        sym.cond = None
        return name

    def flush_reads(self) -> None:
        """Materialize every deferred impure entry (pre-mutation/call)."""
        for sym in self.syms:
            if not sym.pure:
                self.materialize(sym)

    def flush_to_stack(self) -> None:
        """Append all symbolic entries to the real stack, in push order."""
        for sym in self.syms:
            self.w(f"stack.append({sym.expr})")
        self.syms = []

    # -- opcode translation --------------------------------------------------

    def block_of(self, pc: int) -> int:
        return self.gen.block_of_pc[pc]

    def resume_index(self, pc: int) -> int:
        """Block index for resumption at ``pc`` (-1 = end of program)."""
        return self.gen.block_of_pc.get(pc, -1)

    def emit_block(self) -> None:
        code = self.gen.code
        for pc in range(self.start, self.end):
            op, arg = code[pc]
            if op in _TERMINATORS:
                self.emit_terminator(pc, op, arg)
                return
            self.emit_straight(op, arg)
        # Fell through to the next block (the next pc is a jump target).
        self.flush_to_stack()
        if self.end >= self.gen.ncode:
            self.r(f"frame.pc = {self.gen.ncode}")
            self.r("frame.block = -1")
            self.r("return (DoneCommand(), -1)")
        else:
            self.r(f"return _N{self.block_of(self.end)}")

    def emit_straight(self, op: int, arg: Any) -> None:
        if op == _OP_CONST:
            literal = _const_expr(arg)
            if literal is None:
                literal = self.gen.hoist(arg)
            self.push(literal, pure=True)
        elif op == _OP_LOAD_M:
            self.push(f"M[{arg!r}]")
        elif op == _OP_LOAD_N:
            self.push(f"N[{arg!r}]")
        elif op == _OP_STORE_M or op == _OP_STORE_N:
            value = self.pop()
            self.flush_reads()
            scope = "M" if op == _OP_STORE_M else "N"
            self.w(f"{scope}[{arg!r}] = {value.expr}")
        elif op in _ARITH:
            right = self.pop()
            left = self.pop()
            self.push(_ARITH[op].format(left.expr, right.expr))
        elif op in _COMPARE:
            right = self.pop()
            left = self.pop()
            cond = _COMPARE[op].format(left.expr, right.expr)
            self.push(f"(1 if {cond} else 0)", cond=cond)
        elif op == _OP_NEG:
            value = self.pop()
            self.push(f"(-({value.expr}))")
        elif op == _OP_NOT:
            value = self.pop()
            inner = value.cond or value.expr
            self.push(
                f"(0 if {inner} else 1)", cond=f"not ({inner})"
            )
        elif op == _OP_POP:
            value = self.pop()
            if not value.pure:
                # Still evaluated (and still able to raise), as in the
                # interpreter; only the discard is free.
                self.w(value.expr)
        elif op == _OP_STORE_INDEX:
            value = self.pop()
            index = self.pop()
            container = self.pop()
            self.flush_reads()
            for sym in (container, index, value):  # original push order
                self.materialize(sym)
            self.w(
                f"({container.expr})[_ci({index.expr})] = {value.expr}"
            )
        elif op == _OP_LOADNET:
            self.flush_reads()
            name = self.temp()
            self.r(f"{name} = netvar({arg!r})")
            self.push(name, pure=True)
        elif op == _OP_CALL:
            native, argc = arg
            args = [self.pop() for _ in range(argc)][::-1]
            self.flush_reads()
            for sym in args:  # evaluate in push order, before the call
                self.materialize(sym)
            name = self.temp()
            arglist = ", ".join(sym.expr for sym in args)
            self.r(f"{name} = call_native({native!r}, [{arglist}])")
            self.push(name, pure=True)
        else:  # pragma: no cover - _build_dispatch validates opcodes
            raise MclRuntimeError(f"closures: unknown opcode {op}")

    def emit_terminator(self, pc: int, op: int, arg: Any) -> None:
        if op == _OP_JMP:
            self.flush_to_stack()
            self.r(f"return _N{self.block_of(arg)}")
        elif op == _OP_JF:
            condition = self.pop()
            self.flush_to_stack()
            cond = condition.cond or condition.expr
            self.w(f"if not ({cond}): return _N{self.block_of(arg)}")
            self.r(f"return _N{self.block_of(pc + 1)}")
        elif op == _OP_RET_NONE or op == _OP_RET_VALUE:
            value = self.pop() if op == _OP_RET_VALUE else None
            if value is not None:
                self.materialize(value)
            self.flush_to_stack()
            self.r(f"frame.pc = {pc + 1}")
            self.r("frame.block = -1")
            if value is not None:
                self.r(f"return (DoneCommand(value={value.expr}), -1)")
            else:
                self.r("return (DoneCommand(), -1)")
        elif op == _OP_SCHED:
            time_sym = self.pop()
            self.flush_to_stack()
            name = self.materialize(time_sym)
            resume = self.resume_index(pc + 1)
            self.r(f"frame.pc = {pc + 1}")
            self.r(f"frame.block = {resume}")
            self.r(f"if not isinstance({name}, (int, float)):")
            self.r(
                f'    raise MclRuntimeError(f"M_sched_time_{arg}: '
                f'non-numeric time {{{name}!r}}")'
            )
            self.r(
                f"return (SchedCommand(kind={arg!r}, "
                f"time=float({name})), {resume})"
            )
        elif op == _OP_HOP or op == _OP_DELETE:
            ll_sym = self.pop() if arg.ll_kind == EXPR else None
            ln_sym = self.pop() if arg.ln_kind == EXPR else None
            self.flush_to_stack()
            # Materialize in push (= interpreter evaluation) order.
            ln = (
                f"_nav({self.materialize(ln_sym)})"
                if ln_sym is not None
                else '"*"'
            )
            ll = (
                f"_nav({self.materialize(ll_sym)})"
                if ll_sym is not None
                else '"*"'
            )
            resume = self.resume_index(pc + 1)
            ctor = "HopCommand" if op == _OP_HOP else "DeleteCommand"
            self.r(f"frame.pc = {pc + 1}")
            self.r(f"frame.block = {resume}")
            self.r(
                f"return ({ctor}(ln={ln}, ll={ll}, "
                f"ldir={arg.ldir!r}), {resume})"
            )
        else:  # _OP_CREATE
            self.flush_to_stack()
            template = self.gen.hoist(arg)
            resume = self.resume_index(pc + 1)
            self.r(f"frame.pc = {pc + 1}")
            self.r(f"frame.block = {resume}")
            self.r(f"return (_create({template}, stack.pop, 0), {resume})")

    # -- rendering -----------------------------------------------------------

    def render(self, index: int) -> str:
        """The block as one Python function definition."""
        out = [
            f"def _b{index}(frame, stack, M, N, netvar, call_native):"
        ]
        run: list[str] = []

        def close_run():
            if not run:
                return
            out.append("    try:")
            out.extend(f"        {line}" for line in run)
            out.append("    except _ERRS as _e:")
            out.append(
                "        raise MclRuntimeError(_PNAME + str(_e)) from _e"
            )
            run.clear()

        for channel, line in self.lines:
            if channel == "w":
                run.append(line)
            else:
                close_run()
                out.append(f"    {line}")
        close_run()
        return "\n".join(out)


class _ProgramGen:
    """Codegen driver: partitions a program and renders every block."""

    def __init__(self, program: Program):
        self.program = program
        code = program._dispatch
        if code is None:
            code = _build_dispatch(program)
        self.code = code
        self.ncode = len(code)
        self.ranges = _partition(code)
        self.block_of_pc = {
            start: index for index, (start, _) in enumerate(self.ranges)
        }
        self.ntemp = 0
        #: Non-literal constants (templates, folded objects) hoisted
        #: into the exec namespace as ``_A<n>``.
        self.hoisted: dict[int, tuple[str, Any]] = {}

    def hoist(self, value: Any) -> str:
        entry = self.hoisted.get(id(value))
        if entry is None:
            entry = (f"_A{len(self.hoisted)}", value)
            self.hoisted[id(value)] = entry
        return entry[0]

    def compile(self) -> CompiledBlocks:
        pieces = []
        for index, (start, end) in enumerate(self.ranges):
            self.ntemp = 0
            gen = _BlockGen(self, start, end)
            gen.emit_block()
            pieces.append(gen.render(index))
        source = "\n\n".join(pieces)
        namespace: dict[str, Any] = {
            "MclRuntimeError": MclRuntimeError,
            "DoneCommand": DoneCommand,
            "SchedCommand": SchedCommand,
            "HopCommand": HopCommand,
            "DeleteCommand": DeleteCommand,
            "_create": _create_command,
            "_nav": _nav_name,
            "_div": _div,
            "_ci": _coerce_index,
            "_ERRS": _ERRS,
            "_PNAME": f"{self.program.name}: ",
        }
        for name, value in self.hoisted.values():
            namespace[name] = value
        for index in range(len(self.ranges)):
            namespace[f"_N{index}"] = (None, index)
        exec(  # noqa: S102 - the source is generated from validated bytecode
            compile(
                source, f"<mcl-closures:{self.program.name}>", "exec"
            ),
            namespace,
        )
        blocks = [
            (namespace[f"_b{index}"], end - start)
            for index, (start, end) in enumerate(self.ranges)
        ]
        entry_pc = [start for start, _ in self.ranges]
        return CompiledBlocks(
            blocks, entry_pc, self.block_of_pc, self.ncode, source
        )


def compile_blocks(program: Program) -> CompiledBlocks:
    """Compile ``program`` to basic-block closures, cached on the
    program next to its ``_dispatch`` table (one build per compiled
    program for its whole lifetime, shared through the program cache)."""
    compiled = program._closures
    if compiled is None:
        compiled = _ProgramGen(program).compile()
        program._closures = compiled
    return compiled


def run(
    frame: Frame,
    messenger_vars: dict,
    node_vars: dict,
    netvar: Callable[[str], Any],
    call_native: Callable[[str, list], Any],
    max_instructions: int = 1_000_000,
    opcounts: Optional[dict] = None,
) -> Command:
    """Execute until the next preemption point via compiled closures.

    Drop-in replacement for :func:`.vm.run` — same signature, same
    Command stream, same ``instructions`` accounting, same frame state
    at every yield.  When ``opcounts`` is requested, the shared
    reference counting path runs instead (identical to the
    interpreter's behaviour for instrumented runs).
    """
    if opcounts is not None:
        return _run_counting(
            frame,
            messenger_vars,
            node_vars,
            netvar,
            call_native,
            max_instructions,
            opcounts,
        )

    program = frame.program
    compiled = program._closures
    if compiled is None:
        compiled = compile_blocks(program)
    pc = frame.pc
    if pc >= compiled.ncode:
        # Fell off the end of the program: implicit return.
        return DoneCommand()
    index = frame.block
    if (
        index < 0
        or index >= len(compiled.entry_pc)
        or compiled.entry_pc[index] != pc
    ):
        index = compiled.block_of_pc.get(pc, -1)
        if index < 0:
            raise MclRuntimeError(
                f"{program.name}: cannot resume at pc={pc} "
                "(not a basic-block boundary)"
            )
    blocks = compiled.blocks
    stack = frame.stack
    executed = 0
    while True:
        fn, count = blocks[index]
        if executed + count > max_instructions:
            # The budget ends inside this block.  A block is
            # straight-line, so the interpreter cannot reach its
            # terminator either: it raises on the exact instruction.
            frame.pc = compiled.entry_pc[index]
            frame.block = -1
            return _vm_run(
                frame, messenger_vars, node_vars, netvar, call_native,
                max_instructions - executed,
            )
        executed += count
        command, index = fn(
            frame, stack, messenger_vars, node_vars, netvar, call_native
        )
        if command is not None:
            command.instructions = executed
            return command
        if executed >= max_instructions:
            frame.pc = compiled.entry_pc[index]
            frame.block = index
            raise MclRuntimeError(
                f"{program.name}: exceeded {max_instructions} instructions "
                "without reaching a preemption point (infinite loop?)"
            )
