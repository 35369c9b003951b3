"""AST → bytecode compiler for MCL.

A straightforward single-pass compiler with backpatching for control
flow.  The two virtual-time library functions of §2.2
(``M_sched_time_abs`` / ``M_sched_time_dlt``) compile to the dedicated
``SCHED`` instruction because they must suspend the interpreter, unlike
ordinary native calls which execute atomically.

Two fast-path services live here as well:

* **program cache** — :func:`compile_source` is memoised on the
  SHA-256 of the source text plus function name, so repeated
  experiment replications over the same scripts parse and compile
  exactly once per process and share one VM dispatch table.
  The cache is a bounded :class:`LruCache` whose hit/miss counters are
  exported as the ``mcl_cache_hits``/``mcl_cache_misses`` gauges (see
  :meth:`~repro.messengers.system.MessengersSystem.compile`);
* **constant folding** — constant subexpressions (``2 * 3 + 1``,
  ``-5``, ``!0``) are evaluated at compile time with the VM's own
  operator semantics and emitted as a single ``CONST``.  Expressions
  whose folding would raise (e.g. ``1 / 0``) are emitted unfolded so
  the error still happens at run time, exactly as before.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Optional

from . import ast
from .bytecode import (
    CreateItemTemplate,
    CreateTemplate,
    EXPR,
    Instr,
    NavTemplate,
    Program,
    UNNAMED_KIND,
    WILD,
)
from .parser import parse
from .vm import MclRuntimeError, _binop, _truthy

__all__ = [
    "CompileError",
    "LruCache",
    "compile_function",
    "compile_source",
]

_SCHED_NAMES = {
    "M_sched_time_abs": "abs",
    "M_sched_time_dlt": "dlt",
}


class CompileError(SyntaxError):
    """Semantically invalid MCL (e.g. ``break`` outside a loop)."""


#: Sentinel for "not a compile-time constant" during folding.
_NOT_CONST = object()


class LruCache:
    """Bounded LRU mapping with hit/miss counters.

    Backs the compiled-program caches (module-level here, per-system in
    :class:`~repro.messengers.system.MessengersSystem`).  The counters
    feed the ``mcl_cache_hits`` / ``mcl_cache_misses`` obs gauges; the
    bound keeps long generative sweeps (e.g. the Hypothesis differential
    test compiling thousands of distinct programs) from growing the
    cache without limit.
    """

    __slots__ = ("capacity", "hits", "misses", "_data")

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()

    def get(self, key: Any) -> Any:
        """The cached value (refreshed to most-recent), or None."""
        data = self._data
        try:
            value = data[key]
        except KeyError:
            self.misses += 1
            return None
        data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        data = self._data
        data[key] = value
        data.move_to_end(key)
        if len(data) > self.capacity:
            data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "capacity": self.capacity,
        }


#: Compiled-program cache keyed by (sha256(source), function name).
#: Programs are immutable once compiled, so sharing them across callers
#: (and whole experiment sweeps) is safe.
_program_cache = LruCache(capacity=256)


def _source_key(source: str, name: Optional[str]) -> tuple:
    return (hashlib.sha256(source.encode()).hexdigest(), name)


def compile_source(
    source: str, name: Optional[str] = None
) -> Program:
    """Parse and compile one function from MCL source text (memoised)."""
    key = _source_key(source, name)
    program = _program_cache.get(key)
    if program is None:
        function = parse(source).function(name)
        program = compile_function(function, source=source)
        _program_cache.put(key, program)
    return program


def compile_function(
    function: ast.Function, source: Optional[str] = None
) -> Program:
    """Compile a parsed function to a :class:`Program`."""
    compiler = _Compiler(frozenset(function.node_vars))
    compiler.block(function.body)
    compiler.emit("RET")
    return Program(
        function.name,
        function.params,
        frozenset(function.node_vars),
        compiler.instructions,
        source=source,
    )


class _Compiler:
    def __init__(self, node_vars: frozenset):
        self.node_vars = node_vars
        self.instructions: list[Instr] = []
        # Stack of (break-patch-list, continue-target) for nested loops.
        self._loops: list[tuple[list, list]] = []

    # -- emission helpers ---------------------------------------------------

    def emit(self, op: str, arg=None) -> int:
        self.instructions.append(Instr(op, arg))
        return len(self.instructions) - 1

    @property
    def here(self) -> int:
        return len(self.instructions)

    def patch(self, index: int, target: int) -> None:
        self.instructions[index].arg = target

    # -- statements ------------------------------------------------------------

    def block(self, block: ast.Block) -> None:
        for statement in block.statements:
            self.statement(statement)

    def statement(self, node) -> None:
        method = getattr(self, f"_stmt_{type(node).__name__.lower()}", None)
        if method is None:
            raise CompileError(f"cannot compile statement {node!r}")
        method(node)

    def _stmt_block(self, node: ast.Block) -> None:
        self.block(node)

    def _stmt_assign(self, node: ast.Assign) -> None:
        if node.is_netvar:
            raise CompileError(
                f"network variable ${node.target} is read-only"
            )
        if node.op == "=":
            self.expression(node.expr)
        else:
            self.emit("LOAD", node.target)
            self.expression(node.expr)
            self.emit("BINOP", node.op[0])  # '+=' -> '+'
        self.emit("STORE", node.target)

    def _stmt_indexassign(self, node: ast.IndexAssign) -> None:
        # name[index] op= expr  -->  container, index, value, STORE_INDEX
        self.emit("LOAD", node.target)
        self.expression(node.index)
        if node.op == "=":
            self.expression(node.expr)
        else:
            # augmented: re-evaluate container[index] (index evaluated
            # twice; see ast.IndexAssign docstring)
            self.emit("LOAD", node.target)
            self.expression(node.index)
            self.emit("BINOP", "[]")
            self.expression(node.expr)
            self.emit("BINOP", node.op[0])
        self.emit("STORE_INDEX")

    def _stmt_exprstmt(self, node: ast.ExprStmt) -> None:
        self.expression(node.expr)
        self.emit("POP")

    def _stmt_if(self, node: ast.If) -> None:
        self.expression(node.condition)
        jump_false = self.emit("JF")
        self.block(node.then_body)
        if node.else_body is not None:
            jump_end = self.emit("JMP")
            self.patch(jump_false, self.here)
            self.block(node.else_body)
            self.patch(jump_end, self.here)
        else:
            self.patch(jump_false, self.here)

    def _stmt_while(self, node: ast.While) -> None:
        top = self.here
        self.expression(node.condition)
        jump_out = self.emit("JF")
        breaks: list[int] = []
        continues: list[int] = []
        self._loops.append((breaks, continues))
        self.block(node.body)
        self._loops.pop()
        for index in continues:
            self.patch(index, top)
        self.emit("JMP", top)
        self.patch(jump_out, self.here)
        for index in breaks:
            self.patch(index, self.here)

    def _stmt_for(self, node: ast.For) -> None:
        if node.init is not None:
            self.statement(node.init)
        top = self.here
        jump_out = None
        if node.condition is not None:
            self.expression(node.condition)
            jump_out = self.emit("JF")
        breaks: list[int] = []
        continues: list[int] = []
        self._loops.append((breaks, continues))
        self.block(node.body)
        self._loops.pop()
        step_at = self.here
        for index in continues:
            self.patch(index, step_at)
        if node.step is not None:
            self.statement(node.step)
        self.emit("JMP", top)
        if jump_out is not None:
            self.patch(jump_out, self.here)
        for index in breaks:
            self.patch(index, self.here)

    def _stmt_break(self, node: ast.Break) -> None:
        if not self._loops:
            raise CompileError("break outside a loop")
        self._loops[-1][0].append(self.emit("JMP"))

    def _stmt_continue(self, node: ast.Continue) -> None:
        if not self._loops:
            raise CompileError("continue outside a loop")
        self._loops[-1][1].append(self.emit("JMP"))

    def _stmt_return(self, node: ast.Return) -> None:
        if node.expr is not None:
            self.expression(node.expr)
            self.emit("RET", "value")
        else:
            self.emit("RET")

    # -- navigation -----------------------------------------------------------------

    def _nav_field_kind(self, value) -> str:
        """Emit value code if needed; return the template kind."""
        if value is ast.WILDCARD:
            return WILD
        if value is ast.UNNAMED:
            return UNNAMED_KIND
        self.expression(value)
        return EXPR

    def _stmt_hop(self, node: ast.Hop) -> None:
        self._emit_nav("HOP", node.spec)

    def _stmt_delete(self, node: ast.Delete) -> None:
        self._emit_nav("DELETE", node.spec)

    def _emit_nav(self, op: str, spec: ast.NavSpec) -> None:
        ln_kind = self._nav_field_kind(spec.ln)
        ll_kind = self._nav_field_kind(spec.ll)
        if spec.ldir not in ("+", "-", "*"):
            raise CompileError(f"bad ldir {spec.ldir!r}")
        self.emit(op, NavTemplate(ln_kind, ll_kind, spec.ldir))

    def _stmt_create(self, node: ast.Create) -> None:
        templates = []
        for item in node.items:
            ln_kind = self._nav_field_kind(item.ln)
            ll_kind = self._nav_field_kind(item.ll)
            dn_kind = self._nav_field_kind(item.dn)
            dl_kind = self._nav_field_kind(item.dl)
            for direction in (item.ldir, item.ddir):
                if direction not in ("+", "-", "*"):
                    raise CompileError(f"bad direction {direction!r}")
            templates.append(
                CreateItemTemplate(
                    ln_kind, ll_kind, item.ldir, dn_kind, dl_kind, item.ddir
                )
            )
        self.emit(
            "CREATE", CreateTemplate(tuple(templates), node.all_daemons)
        )

    # -- expressions --------------------------------------------------------------------

    def expression(self, node) -> None:
        method = getattr(self, f"_expr_{type(node).__name__.lower()}", None)
        if method is None:
            raise CompileError(f"cannot compile expression {node!r}")
        method(node)

    def _expr_num(self, node: ast.Num) -> None:
        self.emit("CONST", node.value)

    def _expr_str(self, node: ast.Str) -> None:
        self.emit("CONST", node.value)

    def _expr_var(self, node: ast.Var) -> None:
        self.emit("LOAD", node.name)

    def _expr_index(self, node: ast.Index) -> None:
        self.expression(node.base)
        self.expression(node.index)
        self.emit("BINOP", "[]")

    def _expr_assignexpr(self, node: ast.AssignExpr) -> None:
        self.expression(node.expr)
        self.emit("STORE", node.target)
        self.emit("LOAD", node.target)

    def _expr_netvar(self, node: ast.NetVar) -> None:
        self.emit("LOADNET", node.name)

    def _expr_call(self, node: ast.Call) -> None:
        if node.name in _SCHED_NAMES:
            if len(node.args) != 1:
                raise CompileError(
                    f"{node.name} takes exactly one argument"
                )
            self.expression(node.args[0])
            self.emit("SCHED", _SCHED_NAMES[node.name])
            # A SCHED yields no value; push a placeholder for uniformity
            # with expression context (it is POPped in statement context).
            self.emit("CONST", None)
            return
        for arg in node.args:
            self.expression(arg)
        self.emit("CALL", (node.name, len(node.args)))

    # -- constant folding ---------------------------------------------------

    def _const_eval(self, node):
        """Value of a constant subexpression, or ``_NOT_CONST``.

        Uses the VM's own operator semantics (``_binop``/``_truthy``) so
        a folded expression is bit-identical to its interpreted form.
        Anything whose evaluation raises (``1/0``) is left unfolded so
        the failure still happens at run time.
        """
        if isinstance(node, (ast.Num, ast.Str)):
            return node.value
        if isinstance(node, ast.UnOp):
            value = self._const_eval(node.operand)
            if value is _NOT_CONST:
                return _NOT_CONST
            if node.op == "-":
                try:
                    return -value
                except TypeError:
                    return _NOT_CONST
            if node.op == "!":
                return 0 if _truthy(value) else 1
            return _NOT_CONST
        if isinstance(node, ast.BinOp) and node.op not in ("&&", "||"):
            left = self._const_eval(node.left)
            if left is _NOT_CONST:
                return _NOT_CONST
            right = self._const_eval(node.right)
            if right is _NOT_CONST:
                return _NOT_CONST
            try:
                return _binop(node.op, left, right)
            except MclRuntimeError:
                return _NOT_CONST
        return _NOT_CONST

    def _expr_binop(self, node: ast.BinOp) -> None:
        folded = self._const_eval(node)
        if folded is not _NOT_CONST:
            self.emit("CONST", folded)
            return
        if node.op in ("&&", "||"):
            # Short-circuit evaluation, C style.
            self.expression(node.left)
            if node.op == "&&":
                jump = self.emit("JF", None)
                self.expression(node.right)
                end = self.emit("JMP")
                self.patch(jump, self.here)
                self.emit("CONST", 0)
                self.patch(end, self.here)
            else:
                # a || b  ==  if a then 1 else bool(b)
                jump_true = self.emit("JF")
                self.emit("CONST", 1)
                end = self.emit("JMP")
                self.patch(jump_true, self.here)
                self.expression(node.right)
                self.patch(end, self.here)
            return
        self.expression(node.left)
        self.expression(node.right)
        self.emit("BINOP", node.op)

    def _expr_unop(self, node: ast.UnOp) -> None:
        folded = self._const_eval(node)
        if folded is not _NOT_CONST:
            self.emit("CONST", folded)
            return
        self.expression(node.operand)
        self.emit("UNOP", node.op)
