"""Differential test: the closures backend IS the interpreter.

Hypothesis generates random small MCL programs — arithmetic, variable
traffic, short-circuit logic, arrays, native calls, network variables,
hops, scheds, creates, bounded loops — and runs each under both VM
backends from identical starting state.  The two executions must
produce the identical Command stream (types, fields, per-yield
``instructions`` counts), identical final messenger/node variables, and
identical ``frame.pc``/``frame.stack``.  Scripts that fail must fail
with the same exception class at the same command index (error
*message* texts are the one documented divergence).

``frame.block`` is deliberately excluded from the comparison: it is the
closures backend's private resumption hint (-1 under the interpreter).
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.messengers.mcl import closures, vm
from repro.messengers.mcl.bytecode import DoneCommand
from repro.messengers.mcl.compiler import compile_source
from repro.messengers.mcl.vm import Frame

#: Messenger variables every generated program starts from.
VAR_POOL = ("a", "b", "c")

#: Values the native stub and netvar resolver hand back.
NET_VALUES = {"$address": 7, "$last": "ring"}


def _native_env():
    """Deterministic native functions available to generated scripts."""
    return {
        "twist": lambda x: x * 2 + 1,
        "mix": lambda x, y: x - y,
        "mklist": lambda: [3, 1, 4, 1, 5],
    }


# -- program generator -------------------------------------------------------


@st.composite
def expressions(draw, depth=0):
    """Source text of an integer-valued MCL expression over VAR_POOL."""
    if depth >= 3:
        choices = ("literal", "var")
    else:
        choices = (
            "literal", "var", "binop", "compare", "logic", "not",
            "neg", "native", "netvar", "index",
        )
    kind = draw(st.sampled_from(choices))
    if kind == "literal":
        return str(draw(st.integers(min_value=0, max_value=99)))
    if kind == "var":
        return draw(st.sampled_from(VAR_POOL))
    if kind == "binop":
        op = draw(st.sampled_from(["+", "-", "*", "/", "%"]))
        left = draw(expressions(depth=depth + 1))
        right = draw(expressions(depth=depth + 1))
        if op in ("/", "%"):
            # Guarantee a non-zero denominator without constraining the
            # sub-expression (C semantics: % of a positive is in range).
            return f"({left} {op} (({right}) % 7 + 1))"
        return f"({left} {op} {right})"
    if kind == "compare":
        op = draw(st.sampled_from(["==", "!=", "<", ">", "<=", ">="]))
        left = draw(expressions(depth=depth + 1))
        right = draw(expressions(depth=depth + 1))
        return f"({left} {op} {right})"
    if kind == "logic":
        op = draw(st.sampled_from(["&&", "||"]))
        left = draw(expressions(depth=depth + 1))
        right = draw(expressions(depth=depth + 1))
        return f"({left} {op} {right})"
    if kind == "not":
        return f"(!{draw(expressions(depth=depth + 1))})"
    if kind == "neg":
        return f"(-{draw(expressions(depth=depth + 1))})"
    if kind == "native":
        if draw(st.booleans()):
            return f"twist({draw(expressions(depth=depth + 1))})"
        left = draw(expressions(depth=depth + 1))
        right = draw(expressions(depth=depth + 1))
        return f"mix({left}, {right})"
    if kind == "netvar":
        return "$address"
    # kind == "index": read through the list variable initialised in
    # the preamble; the modulus keeps the subscript in range.
    inner = draw(expressions(depth=depth + 1))
    return f"arr[({inner}) % 5]"


@st.composite
def statements(draw, depth=0):
    if depth >= 2:
        choices = ("assign",)
    else:
        choices = (
            "assign", "assign", "augmented", "if", "if_else",
            "while", "hop", "sched", "create", "call", "index_assign",
        )
    kind = draw(st.sampled_from(choices))
    if kind == "assign":
        var = draw(st.sampled_from(VAR_POOL))
        return f"{var} = {draw(expressions())};"
    if kind == "augmented":
        var = draw(st.sampled_from(VAR_POOL))
        return f"{var} = {var} + {draw(expressions())};"
    if kind == "if":
        body = draw(statements(depth=depth + 1))
        return f"if ({draw(expressions())}) {{ {body} }}"
    if kind == "if_else":
        then = draw(statements(depth=depth + 1))
        other = draw(statements(depth=depth + 1))
        cond = draw(expressions())
        return f"if ({cond}) {{ {then} }} else {{ {other} }}"
    if kind == "while":
        # Bounded counting loop over a dedicated counter variable so
        # generated programs always terminate.
        bound = draw(st.integers(min_value=1, max_value=4))
        body = draw(statements(depth=depth + 1))
        return (
            f"k = 0; while (k < {bound}) {{ {body} k = k + 1; }}"
        )
    if kind == "hop":
        if draw(st.booleans()):
            return 'hop(ll = "ring");'
        var = draw(st.sampled_from(VAR_POOL))
        return f'hop(ln = twist({var}); ll = "ring");'
    if kind == "sched":
        return (
            f"M_sched_time_dlt(({draw(expressions())}) % 5 + 1);"
        )
    if kind == "create":
        return 'create(ll = "spur");'
    if kind == "call":
        return f"twist({draw(expressions())});"
    # index_assign
    index = draw(expressions())
    return f"arr[({index}) % 5] = {draw(expressions())};"


@st.composite
def programs(draw):
    body = " ".join(
        draw(st.lists(statements(), min_size=1, max_size=6))
    )
    inits = " ".join(
        f"{name} = {draw(st.integers(min_value=0, max_value=20))};"
        for name in VAR_POOL
    )
    return (
        "p()\n{\n"
        f"    {inits} k = 0; arr = mklist();\n"
        f"    {body}\n"
        "    return a + b + c;\n"
        "}\n"
    )


# -- differential harness ----------------------------------------------------


def execute(backend, source):
    """Run ``source`` to completion; return every observable output.

    Commands are flattened to (type-name, field-tuple); hops/scheds/
    creates are acknowledged by simply resuming (a self-hop).  Errors
    terminate the run and are recorded as the exception class name.
    """
    program = compile_source(source, "p")
    # Fresh compilation artifacts per run: the differential claim is
    # about execution, not about cache sharing.
    program._dispatch = None
    program._closures = None
    natives = _native_env()
    frame = Frame(program)
    mvars: dict = {}
    nvars: dict = {}
    commands = []
    error = None

    def netvar(name):
        return NET_VALUES.get(name, 0)

    def call_native(name, args):
        return natives[name](*args)

    try:
        for _ in range(500):
            command = vm_run_result = backend(
                frame, mvars, nvars, netvar, call_native,
                max_instructions=100_000,
            )
            commands.append(
                (type(command).__name__, dataclasses.astuple(command))
            )
            if isinstance(vm_run_result, DoneCommand):
                break
    except Exception as exc:  # noqa: BLE001 - class identity is the point
        error = type(exc).__name__
    return {
        "commands": commands,
        "error": error,
        "mvars": mvars,
        "nvars": nvars,
        "pc": frame.pc,
        "stack": list(frame.stack),
    }


class TestBackendDifferential:
    @given(source=programs())
    @settings(max_examples=150, deadline=None)
    def test_closures_matches_interp(self, source):
        reference = execute(vm.run, source)
        compiled = execute(closures.run, source)
        assert compiled["commands"] == reference["commands"], source
        assert compiled["error"] == reference["error"], source
        assert compiled["mvars"] == reference["mvars"], source
        assert compiled["nvars"] == reference["nvars"], source
        if reference["error"] is None:
            # Error paths leave pc/stack unspecified (documented); on
            # clean runs the frame state is bit-identical.
            assert compiled["pc"] == reference["pc"], source
            assert compiled["stack"] == reference["stack"], source

    def test_runaway_guard_stops_on_the_same_instruction(self):
        """The shrunk Hypothesis find: an endless loop cut off by
        ``max_instructions`` used to stop at a block boundary under
        closures (``k`` one assignment ahead of the interpreter)."""
        source = (
            "p() { a = 1; b = 2; c = 3; k = 0; "
            "while (k < 3) { k = 0; while (k < 1) { a = 0; k = k + 1; } "
            "k = k + 1; } return a + b + c; }"
        )
        reference = execute(vm.run, source)
        compiled = execute(closures.run, source)
        assert reference["error"] == "MclRuntimeError"
        assert compiled["error"] == reference["error"]
        assert compiled["commands"] == reference["commands"] == []
        assert compiled["mvars"] == reference["mvars"]
        assert compiled["pc"] == reference["pc"]
        assert compiled["stack"] == reference["stack"]

    def test_known_tricky_shapes(self):
        """Deterministic regression shapes (no Hypothesis shrinking)."""
        shapes = [
            # Short-circuit value carried across a basic-block boundary.
            "p() { a = 1; b = 0; c = (a && (b || 3)) + 2; return c; }",
            # Value on the stack across a hop is impossible (statement
            # boundary), but a sched mid-expression chain is not.
            'p() { a = 2; M_sched_time_dlt(a); a = a + 1; return a; }',
            # AssignExpr ordering: the store must land before the read.
            "p() { a = (b = 3) + b; return a; }",
            # Deferred loads flushed before an index store mutates.
            "p() { arr = mklist(); a = arr[0]; arr[0] = 9; "
            "b = a + arr[0]; return b; }",
            # Fused comparison feeding a JF at a block end.
            "p() { a = 5; if (a * 2 > 9) { a = 1; } else { a = 0; } "
            "return a; }",
        ]
        for source in shapes:
            reference = execute(vm.run, source)
            compiled = execute(closures.run, source)
            assert compiled == {**reference, "pc": compiled["pc"],
                                "stack": compiled["stack"]}, source
            assert compiled["pc"] == reference["pc"], source
            assert compiled["stack"] == reference["stack"], source
