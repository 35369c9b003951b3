"""Closures backend for the MCL VM: one generated function per program.

The int-opcode interpreter in :mod:`.vm` pays one dispatch-loop
iteration per bytecode instruction.  This backend walks each
:class:`~.bytecode.Program` once and ``exec``\\ s it as **one** Python
function, ``_prog``:

* the bytecode is partitioned into **basic blocks** (straight-line runs
  ending at a jump, a jump target, or a preemption point —
  hop/delete/create/sched/return).  Inside a block, runs of
  compute/variable/arith opcodes are *fused* into single Python
  expressions over a symbolic stack — a superinstruction — so
  ``acc = acc + i * 2 - (i % 3)`` executes as one generated statement
  instead of seven interpreted opcodes;
* the blocks are stitched together as **structured Python**.  The MCL
  compiler's JF/JMP shapes (``if``/``else``, ``&&``/``||``, ``break``,
  ``continue``, a ``for`` loop's step) become nested ``if``/``else``
  joined at each branch's immediate post-dominator, and every
  **hop-free loop** — no hop, delete, create or sched between its
  header and its latch — becomes a ``while True:`` whose back edge is
  ``continue`` and whose exit is ``break``.  An outer ``if index == k``
  dispatch remains only where resumption needs it: program entry, the
  block after each preemption point, the header of a loop that
  contains one, and a block that more than one of those reach;
* the **locals rule**: in a hop-free loop with no native call and no
  network-variable read (natives and network variables can see the
  variable dicts), every messenger or node variable the loop touches
  lives in a Python local.  The local form runs only when every such
  name is bound at loop entry; otherwise the dict form of the same loop
  runs, so a missing name fails at the read the interpreter fails at,
  or not at all.  Every stored local is written back to its dict on
  every exit — normal, ``return``, budget hand-off, exception.

Contract with the rest of the system (the bit-identity guarantee):

* the returned :class:`~.bytecode.Command` stream is exactly the
  interpreter's — same command types, same field values, and the same
  ``instructions`` counts (every block adds its static count when it is
  entered, so every instruction is charged exactly once), so the obs
  ledger's "interpretation" accounting is unchanged to the last bit;
* ``frame.pc`` and ``frame.stack`` are bit-identical to the
  interpreter's at every preemption point, so cloning (hop
  replication, checkpoints) and cross-backend migration both work:
  resumption re-enters at the block whose start is ``frame.pc``
  (``frame.block`` caches that index and is validated before use);
* native calls and network-variable reads happen at the same points in
  the same order, with the same argument values, and native exceptions
  propagate raw exactly as in the interpreter.

Error paths that terminate the Messenger (no Command is returned,
nothing is charged) raise the interpreter's error with its exact
message: a read of an unbound variable, a failed ``[]`` or index
assignment, a failed arithmetic operation, comparison or unary minus
(``"<program>: <python error>"``), and the ``max_instructions`` runaway
guard.  The runaway guard stops on the interpreter's exact instruction:
a block the remaining budget cannot cover is handed to :func:`.vm.run`,
and its error is re-raised naming the full budget.

This is the backend every daemon runs
(:data:`repro.messengers.daemon.VM_RUN`); the interpreter stays as the
reference implementation the differential and golden tests compare it
against, and it is the one loop that counts opcodes: a slice that asks
for per-opcode counts runs through :func:`.vm.run`.
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
    _budget_exceeded,
    _build_dispatch,
    _create_command,
    _nav_name,
    run as _vm_run,
)

__all__ = ["run", "compile_program", "CompiledProgram"]


# -- runtime helpers shared with the generated code --------------------------

#: Exception classes the interpreter converts to MclRuntimeError.
_ERRS = (TypeError, ZeroDivisionError, IndexError, KeyError)


def _index(container: Any, index: Any) -> Any:
    """The VM's ``[]``, failing with the interpreter's message."""
    if isinstance(index, float) and index.is_integer():
        index = int(index)
    try:
        return container[index]
    except (TypeError, IndexError, KeyError) as error:
        raise MclRuntimeError(f"[] failed: {error}") from error


def _store_index(container: Any, index: Any, value: Any) -> None:
    """The VM's index assignment, failing with the interpreter's
    message."""
    if isinstance(index, float) and index.is_integer():
        index = int(index)
    try:
        container[index] = value
    except (TypeError, IndexError, KeyError) as error:
        raise MclRuntimeError(f"index assignment failed: {error}") from error


def _failed(pname: str, error: Exception) -> MclRuntimeError:
    """The error for an operation that failed inside a block.

    ``[]`` and index assignment raise their own errors, so a
    ``KeyError`` here is a dict-form variable read, as the interpreter
    words it.
    """
    if isinstance(error, KeyError):
        return MclRuntimeError(
            f"{pname}variable {error.args[0]!r} used before assignment"
        )
    return MclRuntimeError(pname + str(error))


def _div(left: Any, right: Any) -> Any:
    """The VM's ``/``: C integer division when both sides are ints."""
    if isinstance(left, int) and isinstance(right, int):
        return left // right
    return left / right


#: Opcodes that suspend the Messenger (the paper's preemption points).
_YIELD_OPS = frozenset({_OP_HOP, _OP_DELETE, _OP_CREATE, _OP_SCHED})

#: Opcodes that end a basic block.
_TERMINATORS = _YIELD_OPS | {_OP_JMP, _OP_JF, _OP_RET_NONE, _OP_RET_VALUE}

#: Opcodes that let outside code see the variable dicts mid-slice: a
#: loop containing one keeps its variables in the dicts.
_ESCAPE_OPS = frozenset({_OP_CALL, _OP_LOADNET})

#: Variable opcodes -> the generated code's name for their scope's dict.
_SCOPES = {_OP_LOAD_M: "M", _OP_STORE_M: "M", _OP_LOAD_N: "N", _OP_STORE_N: "N"}

#: Fused binary arithmetic: opcode -> format string over (left, right).
_ARITH = {
    _OP_ADD: "({0} + {1})",
    _OP_SUB: "({0} - {1})",
    _OP_MUL: "({0} * {1})",
    _OP_MOD: "({0} % {1})",
    _OP_DIV: "_div({0}, {1})",
    _OP_INDEX: "_index({0}, {1})",
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

#: The virtual exit every region's leaving edges meet at.
_SINK = -1


class CompiledProgram:
    """One program compiled to a single generated function.

    ``fn(frame, stack, M, N, netvar, call_native, index, budget)`` runs
    from resumption block ``index`` and returns ``(command, index,
    executed)``: the Command at the next preemption point, or ``None``
    and the block the remaining ``budget`` cannot cover.  Block ``i``
    starts at ``entry_pc[i]`` and holds ``counts[i]`` instructions;
    ``resume_pc[i]`` is that pc when block ``i`` is a resumption point
    (-1 otherwise), and ``resume_index`` maps it back.
    """

    __slots__ = (
        "fn", "entry_pc", "counts", "resume_pc", "resume_index", "ncode",
        "source",
    )

    def __init__(self, fn, entry_pc, counts, resume_pc, ncode, source):
        self.fn = fn
        self.entry_pc = entry_pc
        self.counts = counts
        self.resume_pc = resume_pc
        self.resume_index = {
            pc: index for index, pc in enumerate(resume_pc) if pc >= 0
        }
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


class _Unstructured(Exception):
    """The control-flow graph has a shape the structurer does not
    handle (an irreducible loop); compile one case per block instead."""


def _dfs(root: int, edges: Callable[[int], list]) -> tuple[list, list]:
    """Postorder of the nodes reachable from ``root``, and the DFS back
    edges ``(latch, header)`` (iterative: programs can be long)."""
    postorder: list[int] = []
    back: list[tuple[int, int]] = []
    state = {root: 1}  # 1 = on the DFS stack, 2 = finished
    stack = [(root, iter(edges(root)))]
    while stack:
        node, successors = stack[-1]
        for succ in successors:
            seen = state.get(succ)
            if seen is None:
                state[succ] = 1
                stack.append((succ, iter(edges(succ))))
                break
            if seen == 1:
                back.append((node, succ))
        else:
            stack.pop()
            state[node] = 2
            postorder.append(node)
    return postorder, back


def _ipdoms(postorder: list, successors: Callable[[int], list]) -> dict:
    """Immediate post-dominators over an acyclic region whose leaving
    edges all go to :data:`_SINK` (Cooper-Harvey-Kennedy on a DAG: a
    node's successors precede it in postorder)."""
    ipdom: dict[int, int] = {}
    depth = {_SINK: 0}

    def meet(a: int, b: int) -> int:
        while a != b:
            if depth[a] >= depth[b]:
                a = ipdom[a]
            else:
                b = ipdom[b]
        return a

    for node in postorder:
        join = None
        for succ in successors(node):
            join = succ if join is None else meet(join, succ)
        join = _SINK if join is None else join
        ipdom[node] = join
        depth[node] = depth[join] + 1
    return ipdom


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
    """Generates the straight-line code of one basic block.

    Walks the block's ``(int_opcode, arg)`` pairs keeping a *symbolic*
    operand stack: pushes defer evaluation, pops splice the deferred
    expressions into the consumer, and only block exits / yields /
    mutation points materialize values.  Flush discipline (the ordering
    contract with the interpreter):

    * before any store (``STORE``/``STORE_INDEX``) or any call
      (``CALL``/``LOADNET``), every deferred *impure* entry — anything
      reading a variable or able to raise — is evaluated into a temp,
      so no read is reordered past a mutation;
    * at block exits and yields the remaining entries are appended to
      the real ``frame.stack`` in push order, so the frame's stack at
      every preemption point is bit-identical to the interpreter's.

    A ``JF`` leaves its condition in ``_c``; the caller emits the
    branch.  ``names`` maps the variables held in Python locals to
    those locals.
    """

    def __init__(self, gen: "_ProgramGen", index: int, names: dict):
        self.gen = gen
        self.start, self.end = gen.ranges[index]
        self.names = names
        #: (channel, line) pairs; "w" lines are grouped into try blocks
        #: that convert _ERRS to MclRuntimeError, "r" lines run bare
        #: (native calls and netvar reads must propagate raw).
        self.lines: list[tuple[str, str]] = []
        self.syms: list[_Sym] = []
        self.ntemp = 0

    # -- emission ------------------------------------------------------------

    def w(self, line: str) -> None:
        self.lines.append(("w", line))

    def r(self, line: str) -> None:
        self.lines.append(("r", line))

    def temp(self) -> str:
        self.ntemp += 1
        return f"_t{self.ntemp}"

    def var(self, op: int, name: str) -> str:
        local = self.names.get(name)
        return local if local is not None else f"{_SCOPES[op]}[{name!r}]"

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
        # Falls through to the next block (the next pc is a jump target).
        self.flush_to_stack()
        if self.end >= self.gen.ncode:
            self.r(f"frame.pc = {self.gen.ncode}")
            self.r("frame.block = -1")
            self.r("return (DoneCommand(), -1, executed)")

    def emit_straight(self, op: int, arg: Any) -> None:
        if op == _OP_CONST:
            literal = _const_expr(arg)
            if literal is None:
                literal = self.gen.hoist(arg)
            self.push(literal, pure=True)
        elif op == _OP_LOAD_M or op == _OP_LOAD_N:
            self.push(self.var(op, arg))
        elif op == _OP_STORE_M or op == _OP_STORE_N:
            value = self.pop()
            self.flush_reads()
            self.w(f"{self.var(op, arg)} = {value.expr}")
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
                f"_store_index({container.expr}, {index.expr}, "
                f"{value.expr})"
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
        elif op == _OP_JF:
            condition = self.pop()
            self.flush_to_stack()
            self.w(f"_c = {condition.cond or condition.expr}")
        elif op == _OP_RET_NONE or op == _OP_RET_VALUE:
            value = self.pop() if op == _OP_RET_VALUE else None
            if value is not None:
                self.materialize(value)
            self.flush_to_stack()
            self.r(f"frame.pc = {pc + 1}")
            self.r("frame.block = -1")
            if value is not None:
                self.r(
                    f"return (DoneCommand(value={value.expr}), -1, executed)"
                )
            else:
                self.r("return (DoneCommand(), -1, executed)")
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
                f"time=float({name})), {resume}, executed)"
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
                f"ldir={arg.ldir!r}), {resume}, executed)"
            )
        else:  # _OP_CREATE
            self.flush_to_stack()
            template = self.gen.hoist(arg)
            resume = self.resume_index(pc + 1)
            self.r(f"frame.pc = {pc + 1}")
            self.r(f"frame.block = {resume}")
            self.r(
                f"return (_create({template}, stack.pop, 0), {resume}, "
                "executed)"
            )

    # -- rendering -----------------------------------------------------------

    def render(self) -> list[str]:
        """The block's lines, each run of "w" lines inside one try."""
        out: list[str] = []
        run: list[str] = []

        def close_run():
            if not run:
                return
            out.append("try:")
            out.extend(f"    {line}" for line in run)
            out.append("except _ERRS as _e:")
            out.append("    raise _failed(_PNAME, _e) from _e")
            run.clear()

        for channel, line in self.lines:
            if channel == "w":
                run.append(line)
            else:
                close_run()
                out.append(line)
        close_run()
        return out


class _Loop:
    """A natural loop of the block graph."""

    __slots__ = (
        "header", "body", "exits", "structured", "names", "leaves", "ipdom",
    )

    def __init__(self, header: int, body: set, exits: list, structured: bool):
        self.header = header
        self.body = body
        #: Blocks outside the body that a body block jumps to.
        self.exits = exits
        #: Emitted as a Python ``while True:`` (hop-free, one exit).
        self.structured = structured
        #: ``(name, scope)`` of every variable the body touches, sorted,
        #: when the locals rule applies; None otherwise.
        self.names: Optional[list] = None
        self.leaves: set = {header, *exits}
        self.ipdom: Optional[dict] = None


class _Ctx:
    """Where emission is: the region's leaving blocks and its joins."""

    __slots__ = ("header", "leaves", "ipdom", "names")

    def __init__(self, header, leaves, ipdom, names):
        #: Loop header for a loop body, None at the dispatch level.
        self.header = header
        self.leaves = leaves
        self.ipdom = ipdom
        #: Variable name -> Python local; ``{}`` = dict access, an inner
        #: loop may switch to locals; None = dict access throughout.
        self.names = names


def _local_name(name: str, position: int) -> str:
    # Only ASCII names pass through: Python folds other identifiers
    # (NFKC), which could merge two distinct MCL names.
    return f"v_{name}" if name.isascii() else f"v{position}_"


class _ProgramGen:
    """Codegen driver: plans the control flow and renders ``_prog``."""

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
        #: Non-literal constants (templates, folded objects) hoisted
        #: into the exec namespace as ``_A<n>``.
        self.hoisted: dict[int, tuple[str, Any]] = {}
        #: Intra-slice successors per block (a JF lists true, then false).
        self.succs: list[list[int]] = []
        #: Blocks ending at a preemption point -> their resumption block.
        self.resumes: dict[int, int] = {}
        for index, (start, end) in enumerate(self.ranges):
            op, arg = code[end - 1]
            if op == _OP_JMP:
                succs = [self.block_of_pc[arg]]
            elif op == _OP_JF:
                succs = [self.block_of_pc[end], self.block_of_pc[arg]]
            elif op in _TERMINATORS:
                succs = []
                if op in _YIELD_OPS:
                    self.resumes[index] = self.block_of_pc.get(end, -1)
            else:
                succs = [self.block_of_pc[end]] if end < self.ncode else []
            self.succs.append(succs)
        self.loops: dict[int, _Loop] = {}
        self.dispatch: set[int] = set()

    def hoist(self, value: Any) -> str:
        entry = self.hoisted.get(id(value))
        if entry is None:
            entry = (f"_A{len(self.hoisted)}", value)
            self.hoisted[id(value)] = entry
        return entry[0]

    # -- planning ------------------------------------------------------------

    def next_nodes(self, node: int, header: Optional[int]) -> list[int]:
        """Successors of ``node`` inside the region headed by ``header``:
        a structured loop nested in it is one node leading to its exit."""
        loop = self.loops.get(node)
        if loop is not None and loop.structured and node != header:
            return loop.exits
        return self.succs[node]

    def plan(self, flat: bool) -> None:
        """Find the loops and choose the dispatch (resumption) blocks.

        With ``flat``, every reachable block is its own dispatch case.
        """

        def edges(node):
            resume = self.resumes.get(node)
            if resume is None:
                return self.succs[node]
            return [resume] if resume >= 0 else []

        postorder, back = _dfs(0, edges)
        self.loops = {}
        if flat:
            self.dispatch = set(postorder)
            return
        preds: dict[int, list[int]] = {node: [] for node in postorder}
        for node in postorder:
            for succ in edges(node):
                preds[succ].append(node)
        latches: dict[int, list[int]] = {}
        for latch, header in back:
            latches.setdefault(header, []).append(latch)
        for header, tails in latches.items():
            body = {header}
            stack = list(tails)
            while stack:
                node = stack.pop()
                if node not in body:
                    body.add(node)
                    stack.extend(preds[node])
            if (0 in body and header != 0) or any(
                pred not in body
                for node in body
                if node != header
                for pred in preds[node]
            ):
                raise _Unstructured(f"loop at block {header} has two entries")
            exits = sorted(
                {s for node in body for s in self.succs[node]} - body
            )
            hop_free = not any(node in self.resumes for node in body)
            self.loops[header] = _Loop(
                header, body, exits, hop_free and len(exits) <= 1
            )
        # A loop around one that is not structured is not structured.
        for loop in sorted(self.loops.values(), key=lambda l: len(l.body)):
            if loop.structured and any(
                not self.loops[node].structured
                for node in loop.body
                if node != loop.header and node in self.loops
            ):
                loop.structured = False
        for loop in self.loops.values():
            if loop.structured:
                self.choose_locals(loop)
        self.dispatch = {0, *(r for r in self.resumes.values() if r >= 0)}
        self.dispatch.update(
            header
            for header, loop in self.loops.items()
            if not loop.structured
        )
        self.dispatch &= set(postorder)
        # A block that two dispatch regions reach becomes a dispatch
        # block itself (the alternative is duplicating its tail).
        while True:
            owner: dict[int, int] = {}
            shared: set[int] = set()
            for start in sorted(self.dispatch):
                seen = {start}
                stack = [start]
                while stack:
                    for succ in self.next_nodes(stack.pop(), None):
                        if succ in self.dispatch or succ in seen:
                            continue
                        seen.add(succ)
                        stack.append(succ)
                        if owner.setdefault(succ, start) != start:
                            shared.add(succ)
            if not shared:
                return
            self.dispatch |= shared

    def choose_locals(self, loop: _Loop) -> None:
        """Apply the locals rule: no call, no netvar read in the body."""
        names: set[tuple[str, str]] = set()
        for node in loop.body:
            start, end = self.ranges[node]
            for op, arg in self.code[start:end]:
                if op in _ESCAPE_OPS:
                    return
                if op in _SCOPES:
                    names.add((arg, _SCOPES[op]))
        loop.names = sorted(names)

    def region_ipdom(self, start: int, header, leaves) -> dict:
        """Join points of the acyclic region entered at ``start``."""

        def inner(node):
            return [
                s for s in self.next_nodes(node, header) if s not in leaves
            ]

        def successors(node):
            return [
                _SINK if s in leaves else s
                for s in self.next_nodes(node, header)
            ]

        postorder, back = _dfs(start, inner)
        if back:
            raise _Unstructured(f"cycle through block {back[0][1]}")
        return _ipdoms(postorder, successors)

    # -- emission ------------------------------------------------------------

    @staticmethod
    def leave(node: int, ctx: _Ctx) -> Optional[tuple]:
        """The lines that take the edge into ``node`` out of the region."""
        if node not in ctx.leaves:
            return None
        if ctx.header is None:
            return (f"index = {node}", "continue")
        return ("continue",) if node == ctx.header else ("break",)

    def emit_seq(self, out, pad, node, stop, ctx, first=False) -> None:
        """Emit from ``node`` until ``stop`` (its caller's join point)."""
        while node != stop:
            leave = None if first else self.leave(node, ctx)
            if leave:
                out.extend(pad + line for line in leave)
                return
            first = False
            loop = self.loops.get(node)
            if loop is not None and loop.structured and node != ctx.header:
                self.emit_loop(out, pad, loop, ctx.names)
                if not loop.exits:
                    return
                node = loop.exits[0]
                continue
            self.emit_block(out, pad, node, ctx.names)
            succs = self.succs[node]
            if len(succs) < 2:
                if not succs:
                    return
                node = succs[0]
                continue
            true, false = succs
            join = ctx.ipdom[node]
            nested = pad + "    "
            if join == _SINK:
                # The branches never meet again: the nested one always
                # leaves or returns, so the other follows it unindented.
                if self.leave(false, ctx):
                    out.append(pad + "if not _c:")
                    self.emit_seq(out, nested, false, join, ctx)
                    node = true
                else:
                    out.append(pad + "if _c:")
                    self.emit_seq(out, nested, true, join, ctx)
                    node = false
                continue
            if true != join:
                out.append(pad + "if _c:")
                self.emit_seq(out, nested, true, join, ctx)
                if false != join:
                    out.append(pad + "else:")
                    self.emit_seq(out, nested, false, join, ctx)
            elif false != join:
                out.append(pad + "if not _c:")
                self.emit_seq(out, nested, false, join, ctx)
            node = join

    def emit_block(self, out, pad, index, names) -> None:
        """One block: its budget check and count, then its code."""
        gen = _BlockGen(self, index, names or {})
        gen.emit_block()
        start, end = self.ranges[index]
        count = end - start
        out.append(f"{pad}executed += {count}  # b{index}: pc {start}..{end - 1}")
        out.append(
            f"{pad}if executed > budget: "
            f"return (None, {index}, executed - {count})"
        )
        out.extend(pad + line for line in gen.render())

    def emit_loop(self, out, pad, loop: _Loop, names) -> None:
        """A structured loop, in local form when the locals rule allows."""
        if loop.ipdom is None:
            loop.ipdom = self.region_ipdom(
                loop.header, loop.header, loop.leaves
            )
        if names != {} or not loop.names:
            self.emit_while(out, pad, loop, names)
            return
        local = {
            name: _local_name(name, position)
            for position, (name, _) in enumerate(loop.names)
        }
        inner = pad + "    "
        out.append(
            pad
            + "if "
            + " and ".join(f"{name!r} in {scope}" for name, scope in loop.names)
            + ":"
        )
        out.extend(
            f"{inner}{local[name]} = {scope}[{name!r}]"
            for name, scope in loop.names
        )
        out.append(f"{inner}try:")
        self.emit_while(out, inner + "    ", loop, local)
        out.append(f"{inner}finally:")
        out.extend(
            f"{inner}    {scope}[{name!r}] = {local[name]}"
            for name, scope in loop.names
        )
        out.append(pad + "else:")
        self.emit_while(out, inner, loop, None)

    def emit_while(self, out, pad, loop: _Loop, names) -> None:
        out.append(pad + "while True:")
        ctx = _Ctx(loop.header, loop.leaves, loop.ipdom, names)
        self.emit_seq(out, pad + "    ", loop.header, _SINK, ctx, first=True)

    def render(self, flat: bool) -> str:
        self.plan(flat)
        lines = [
            "def _prog(frame, stack, M, N, netvar, call_native, index, "
            "budget):",
            "    executed = 0",
            "    while True:",
        ]
        for start in sorted(self.dispatch):
            ctx = _Ctx(
                None,
                self.dispatch,
                self.region_ipdom(start, None, self.dispatch),
                {},
            )
            lines.append(f"        if index == {start}:")
            self.emit_seq(lines, " " * 12, start, _SINK, ctx, first=True)
        lines.append(
            '        raise MclRuntimeError(f"{_PNAME}cannot resume at '
            'block {index}")'
        )
        return "\n".join(lines)

    def build(self, source: str) -> Callable:
        namespace: dict[str, Any] = {
            "MclRuntimeError": MclRuntimeError,
            "DoneCommand": DoneCommand,
            "SchedCommand": SchedCommand,
            "HopCommand": HopCommand,
            "DeleteCommand": DeleteCommand,
            "_create": _create_command,
            "_nav": _nav_name,
            "_div": _div,
            "_index": _index,
            "_store_index": _store_index,
            "_failed": _failed,
            "_ERRS": _ERRS,
            "_PNAME": f"{self.program.name}: ",
        }
        for name, value in self.hoisted.values():
            namespace[name] = value
        exec(  # noqa: S102 - the source is generated from validated bytecode
            compile(
                source, f"<mcl-closures:{self.program.name}>", "exec"
            ),
            namespace,
        )
        return namespace["_prog"]

    def compile(self) -> CompiledProgram:
        try:
            source = self.render(flat=False)
            fn = self.build(source)
        except (_Unstructured, SyntaxError, RecursionError):
            # An irreducible loop, or nesting deeper than Python's
            # compiler takes: every block becomes a dispatch case.
            source = self.render(flat=True)
            fn = self.build(source)
        entry_pc = [start for start, _ in self.ranges]
        return CompiledProgram(
            fn,
            entry_pc,
            [end - start for start, end in self.ranges],
            [
                pc if index in self.dispatch else -1
                for index, pc in enumerate(entry_pc)
            ],
            self.ncode,
            source,
        )


def compile_program(program: Program) -> CompiledProgram:
    """Compile ``program`` to its generated function, cached on the
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
    """Execute until the next preemption point via the compiled function.

    Drop-in replacement for :func:`.vm.run` — same signature, same
    Command stream, same ``instructions`` accounting, same frame state
    at every yield.  When ``opcounts`` is requested, the slice runs
    through :func:`.vm.run`, the one loop that counts opcodes.
    """
    if opcounts is not None:
        return _vm_run(
            frame, messenger_vars, node_vars, netvar, call_native,
            max_instructions, opcounts,
        )

    program = frame.program
    compiled = program._closures
    if compiled is None:
        compiled = compile_program(program)
    pc = frame.pc
    if pc >= compiled.ncode:
        # Fell off the end of the program: implicit return.
        return DoneCommand()
    index = frame.block
    resume_pc = compiled.resume_pc
    if index < 0 or index >= len(resume_pc) or resume_pc[index] != pc:
        index = compiled.resume_index.get(pc, -1)
        if index < 0:
            raise MclRuntimeError(
                f"{program.name}: cannot resume at pc={pc} "
                "(not a resumption point)"
            )
    command, index, executed = compiled.fn(
        frame, frame.stack, messenger_vars, node_vars, netvar, call_native,
        index, max_instructions,
    )
    if command is not None:
        command.instructions = executed
        return command
    # The budget cannot cover block ``index``: stop where the
    # interpreter stops.
    frame.pc = compiled.entry_pc[index]
    frame.block = -1
    if executed >= max_instructions:
        raise _budget_exceeded(program.name, max_instructions)
    # A block is straight-line, so the interpreter cannot reach its
    # terminator either: it raises on the exact instruction.  Its
    # budget error names the residual budget; report the full one.
    residual = max_instructions - executed
    try:
        return _vm_run(
            frame, messenger_vars, node_vars, netvar, call_native, residual,
        )
    except MclRuntimeError as exc:
        if exc.args != _budget_exceeded(program.name, residual).args:
            raise
        raise _budget_exceeded(program.name, max_instructions) from None
