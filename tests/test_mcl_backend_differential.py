"""Differential test: the closures backend IS the interpreter.

Hypothesis generates random small MCL programs — arithmetic, variable
traffic, short-circuit logic, arrays, native calls, network variables,
hops, scheds, creates, bounded ``while``/``for`` loops nested up to
three deep with ``break``/``continue``, reads of a never-assigned name,
names first bound inside a loop and arithmetic, comparisons and unary
minus that fail on a string or a zero divisor — and runs each under both VM
backends from identical starting state, with ``max_instructions``
drawn so that slices also end mid-loop.  The two executions must
produce the identical Command stream (types, fields, per-yield
``instructions`` counts), identical final messenger/node variables, and
identical ``frame.pc``/``frame.stack``.  Scripts that fail must fail
with the same exception class and message at the same command index.
A run that counts opcodes must be the same run, with the same
per-opcode histogram under either backend.

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

#: Values the netvar resolver hands back, keyed as ``LOADNET`` names
#: them (without the ``$``).
NET_VALUES = {"address": 7, "last": "ring"}


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


#: Deepest loop nesting the generator produces (one counter per level).
LOOP_DEPTH = 3

#: The ``max_instructions`` budgets runs draw from: the small ones end
#: slices mid-loop, through the hand-off to the interpreter and the
#: runaway guard.
BUDGETS = (3, 17, 40, 100, 100_000)


@st.composite
def loop_body(draw, depth, loops):
    return " ".join(
        draw(st.lists(
            statements(depth=depth, loops=loops), min_size=1, max_size=2
        ))
    )


@st.composite
def statements(draw, depth=0, loops=0):
    """One statement; ``loops`` counts the loops around it."""
    if depth >= LOOP_DEPTH:
        choices = ("assign",)
    else:
        choices = (
            "assign", "assign", "augmented", "if", "if_else",
            "while", "for", "hop", "sched", "create", "call",
            "index_assign",
        )
    if loops:
        choices += ("break", "continue", "unbound", "fresh")
    if depth < LOOP_DEPTH:
        choices += ("failing",)
    kind = draw(st.sampled_from(choices))
    if kind == "assign":
        var = draw(st.sampled_from(VAR_POOL))
        return f"{var} = {draw(expressions())};"
    if kind == "augmented":
        var = draw(st.sampled_from(VAR_POOL))
        return f"{var} = {var} + {draw(expressions())};"
    if kind == "if":
        body = draw(statements(depth=depth + 1, loops=loops))
        return f"if ({draw(expressions())}) {{ {body} }}"
    if kind == "if_else":
        then = draw(statements(depth=depth + 1, loops=loops))
        other = draw(statements(depth=depth + 1, loops=loops))
        cond = draw(expressions())
        return f"if ({cond}) {{ {then} }} else {{ {other} }}"
    if kind in ("while", "for"):
        # Bounded counting loops, one counter per nesting level, so
        # generated programs always terminate.  A while loop bumps its
        # counter first, so ``continue`` cannot spin.
        bound = draw(st.integers(min_value=1, max_value=4))
        counter = f"k{loops}"
        body = draw(loop_body(depth + 1, loops + 1))
        if kind == "while":
            return (
                f"{counter} = 0; while ({counter} < {bound}) "
                f"{{ {counter} = {counter} + 1; {body} }}"
            )
        return (
            f"for ({counter} = 0; {counter} < {bound}; "
            f"{counter} = {counter} + 1) {{ {body} }}"
        )
    if kind in ("break", "continue"):
        return f"if ({draw(expressions())}) {{ {kind}; }}"
    if kind == "unbound":
        # ``zz`` is never assigned: reading it fails, at the read.
        return f"if ({draw(expressions())}) {{ a = a + zz; }}"
    if kind == "failing":
        # An operation that fails on a string or a zero divisor, when
        # its guard holds.
        var = draw(st.sampled_from(VAR_POOL))
        operation = draw(st.sampled_from(
            [f"{var} - $last", f"$last < {var}", f"{var} / 0", "-$last"]
        ))
        return f"if ({draw(expressions())}) {{ a = {operation}; }}"
    if kind == "fresh":
        # ``t`` is first bound inside a loop body.
        return f"t = {draw(expressions())}; b = b + t;"
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
    counters = " ".join(f"k{level} = 0;" for level in range(LOOP_DEPTH))
    return (
        "p()\n{\n"
        f"    {inits} {counters} arr = mklist();\n"
        f"    {body}\n"
        "    return a + b + c;\n"
        "}\n"
    )


# -- differential harness ----------------------------------------------------


def execute(backend, source, budget=100_000, opcounts=None):
    """Run ``source`` to completion; return every observable output.

    Commands are flattened to (type-name, field-tuple); hops/scheds/
    creates are acknowledged by simply resuming (a self-hop).  Errors
    terminate the run and are recorded as the exception class name and
    message.  ``opcounts``, when given, is passed to every slice and
    returned filled.
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
    error = message = None
    exceeded = False

    def netvar(name):
        return NET_VALUES.get(name, 0)

    def call_native(name, args):
        return natives[name](*args)

    try:
        for _ in range(500):
            command = vm_run_result = backend(
                frame, mvars, nvars, netvar, call_native,
                max_instructions=budget, opcounts=opcounts,
            )
            commands.append(
                (type(command).__name__, dataclasses.astuple(command))
            )
            if isinstance(vm_run_result, DoneCommand):
                break
    except Exception as exc:  # noqa: BLE001 - class identity is the point
        error = type(exc).__name__
        message = str(exc)
        # The runaway guard, as opposed to a failed operation.
        exceeded = "exceeded" in str(exc)
    return {
        "commands": commands,
        "error": error,
        "message": message,
        "exceeded": exceeded,
        "mvars": mvars,
        "nvars": nvars,
        "pc": frame.pc,
        "stack": list(frame.stack),
        "opcounts": opcounts,
    }


def assert_same(reference, compiled, source):
    assert compiled["commands"] == reference["commands"], source
    assert compiled["error"] == reference["error"], source
    assert compiled["message"] == reference["message"], source
    assert compiled["mvars"] == reference["mvars"], source
    assert compiled["nvars"] == reference["nvars"], source
    assert compiled["exceeded"] == reference["exceeded"], source
    if reference["error"] is None or reference["exceeded"]:
        # Failed operations leave pc/stack unspecified (documented); on
        # clean runs and at the runaway guard the frame state is
        # bit-identical.
        assert compiled["pc"] == reference["pc"], source
        assert compiled["stack"] == reference["stack"], source


class TestBackendDifferential:
    @given(
        source=programs(),
        # Half the runs unbounded, so most programs also run to the end.
        budget=st.one_of(st.just(100_000), st.sampled_from(BUDGETS)),
    )
    @settings(max_examples=200, deadline=None)
    def test_closures_matches_interp(self, source, budget):
        reference = execute(vm.run, source, budget)
        assert_same(reference, execute(closures.run, source, budget), source)
        # Counting opcodes changes nothing, and both backends count the
        # same histogram.
        counted = execute(vm.run, source, budget, opcounts={})
        assert_same(reference, counted, source)
        compiled = execute(closures.run, source, budget, opcounts={})
        assert_same(reference, compiled, source)
        assert compiled["opcounts"] == counted["opcounts"], source
        if reference["error"] is None:
            charged = sum(command[1][0] for command in counted["commands"])
            assert sum(counted["opcounts"].values()) == charged, source

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
        """Deterministic regression shapes (no Hypothesis shrinking):
        ``(source, max_instructions, the interpreter's error)``."""
        unbound_in_loop = (
            "p() {{ a = 0; b = 0; k0 = 0; while (k0 < 4) {{ k0 = k0 + 1; "
            "b = b + k0; if (k0 > {cut}) {{ a = zz; }} a = a + 1; }} "
            "return a + b; }}"
        )
        shapes = [
            # Short-circuit value carried across a basic-block boundary.
            ("p() { a = 1; b = 0; c = (a && (b || 3)) + 2; return c; }",
             100_000, None),
            # Value on the stack across a hop is impossible (statement
            # boundary), but a sched mid-expression chain is not.
            ('p() { a = 2; M_sched_time_dlt(a); a = a + 1; return a; }',
             100_000, None),
            # AssignExpr ordering: the store must land before the read.
            ("p() { a = (b = 3) + b; return a; }", 100_000, None),
            # Deferred loads flushed before an index store mutates.
            ("p() { arr = mklist(); a = arr[0]; arr[0] = 9; "
             "b = a + arr[0]; return b; }", 100_000, None),
            # Fused comparison feeding a JF at a block end.
            ("p() { a = 5; if (a * 2 > 9) { a = 1; } else { a = 0; } "
             "return a; }", 100_000, None),
            # A name unbound at loop entry, read only on a branch never
            # taken: no error.
            (unbound_in_loop.format(cut=9), 100_000, None),
            # ... read on the third pass: the error, after two passes'
            # stores.
            (unbound_in_loop.format(cut=2), 100_000, "MclRuntimeError"),
            # Every name bound at entry (the locals path); the budget
            # ends inside the third pass.
            ("p() { a = 0; b = 0; k0 = 0; while (k0 < 4) { "
             "k0 = k0 + 1; b = b + k0; a = a + 1; } return a + b; }",
             40, "MclRuntimeError"),
            # The hand-off to the interpreter runs on the residual
            # budget; the error still names the full one ("exceeded
            # 1000", not "exceeded 2").
            ("p() { i = 0; while (1) { i = i + 1; } }", 1000,
             "MclRuntimeError"),
            # Failed arithmetic, comparison and unary minus: one message,
            # "p: <python error>", from both backends.
            ("p() { a = 1; a = a - $last; return a; }", 100_000,
             "MclRuntimeError"),
            ("p() { a = 1; a = $last < a; return a; }", 100_000,
             "MclRuntimeError"),
            ("p() { a = 1; a = a / 0; return a; }", 100_000,
             "MclRuntimeError"),
            ("p() { a = -$last; return a; }", 100_000, "MclRuntimeError"),
        ]
        for source, budget, error in shapes:
            reference = execute(vm.run, source, budget)
            assert reference["error"] == error, source
            assert_same(reference, execute(closures.run, source, budget), source)
