"""Unit tests for the MCL compiler + VM, driven without a daemon."""

import pytest

from repro.messengers.mcl import (
    CreateCommand,
    DeleteCommand,
    DoneCommand,
    Frame,
    HopCommand,
    MclRuntimeError,
    SchedCommand,
    compile_source,
    run,
)
from repro.messengers.mcl.compiler import CompileError


def execute(source, natives=None, netvars=None, mvars=None, nvars=None,
            max_commands=100):
    """Run a script to completion, collecting yielded commands."""
    program = compile_source(source)
    mvars = {} if mvars is None else mvars
    nvars = {} if nvars is None else nvars
    natives = natives or {}
    netvars = netvars or {}

    def call_native(name, args):
        return natives[name](*args)

    def netvar(name):
        return netvars[name]

    frame = Frame(program)
    commands = []
    for _ in range(max_commands):
        command = run(frame, mvars, nvars, netvar, call_native)
        commands.append(command)
        if isinstance(command, DoneCommand):
            return commands, mvars, nvars
    raise AssertionError("script did not finish")


class TestArithmetic:
    def test_basic_expressions(self):
        _, mvars, _ = execute(
            "f() { a = 2 + 3 * 4; b = (2 + 3) * 4; c = 10 / 4; "
            "d = 10.0 / 4; e = 7 mod 3; }"
        )
        assert mvars == {"a": 14, "b": 20, "c": 2, "d": 2.5, "e": 1}

    def test_integer_division_is_c_like(self):
        _, mvars, _ = execute("f() { x = 7 / 2; }")
        assert mvars["x"] == 3

    def test_comparisons_yield_ints(self):
        _, mvars, _ = execute(
            "f() { a = 1 < 2; b = 2 <= 1; c = 3 == 3; d = 3 != 3; }"
        )
        assert mvars == {"a": 1, "b": 0, "c": 1, "d": 0}

    def test_unary_operators(self):
        _, mvars, _ = execute("f() { a = -5; b = !0; c = !7; }")
        assert mvars == {"a": -5, "b": 1, "c": 0}

    def test_short_circuit_and(self):
        calls = []

        def boom():
            calls.append(1)
            return 1

        execute(
            "f() { x = 0 && boom(); }", natives={"boom": boom}
        )
        assert calls == []

    def test_short_circuit_or(self):
        calls = []

        def boom():
            calls.append(1)
            return 1

        _, mvars, _ = execute(
            "f() { x = 1 || boom(); }", natives={"boom": boom}
        )
        assert calls == []
        assert mvars["x"] == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(MclRuntimeError):
            execute("f() { x = 1 / 0; }")


class TestControlFlow:
    def test_if_else(self):
        _, mvars, _ = execute(
            "f() { if (2 > 1) x = 10; else x = 20; "
            "if (0) y = 1; else y = 2; }"
        )
        assert mvars == {"x": 10, "y": 2}

    def test_while_loop(self):
        _, mvars, _ = execute(
            "f() { s = 0; i = 0; while (i < 5) { s += i; i++; } }"
        )
        assert mvars["s"] == 10

    def test_for_loop(self):
        _, mvars, _ = execute(
            "f() { s = 0; for (i = 0; i < 4; i++) s += i * i; }"
        )
        assert mvars["s"] == 14

    def test_nested_loops_with_break_continue(self):
        _, mvars, _ = execute(
            """
            f() {
                hits = 0;
                for (i = 0; i < 5; i++) {
                    if (i == 3) continue;
                    for (j = 0; j < 5; j++) {
                        if (j > i) break;
                        hits++;
                    }
                }
            }
            """
        )
        # i=0:1, i=1:2, i=2:3, i=3 skipped, i=4:5 -> 11
        assert mvars["hits"] == 11

    def test_break_outside_loop_rejected(self):
        with pytest.raises(CompileError):
            compile_source("f() { break; }")

    def test_continue_outside_loop_rejected(self):
        with pytest.raises(CompileError):
            compile_source("f() { continue; }")

    def test_return_value(self):
        commands, _, _ = execute("f() { return 42; }")
        assert commands[-1].value == 42

    def test_infinite_loop_guard(self):
        program = compile_source("f() { while (1) x = 1; }")
        frame = Frame(program)
        with pytest.raises(MclRuntimeError, match="instructions"):
            run(frame, {}, {}, lambda n: None, lambda n, a: None)


class TestVariables:
    def test_node_vs_messenger_scope(self):
        _, mvars, nvars = execute(
            "f() { node shared; shared = 5; private = 6; }"
        )
        assert nvars == {"shared": 5}
        assert mvars == {"private": 6}

    def test_undefined_variable_raises(self):
        with pytest.raises(MclRuntimeError, match="before"):
            execute("f() { x = y + 1; }")

    def test_netvar_read(self):
        _, mvars, _ = execute(
            "f() { where = $address; }", netvars={"address": "host9"}
        )
        assert mvars["where"] == "host9"

    def test_netvar_assignment_rejected(self):
        with pytest.raises(CompileError, match="read-only"):
            compile_source("f() { $address = 1; }")

    def test_params_become_messenger_vars(self):
        program = compile_source("f(a, b) { c = a + b; }")
        frame = Frame(program)
        mvars = {"a": 2, "b": 3}
        command = run(frame, mvars, {}, lambda n: None, lambda n, a: None)
        assert isinstance(command, DoneCommand)
        assert mvars["c"] == 5


class TestNativeCalls:
    def test_call_with_arguments_in_order(self):
        seen = []

        def record(*args):
            seen.append(args)
            return len(args)

        _, mvars, _ = execute(
            "f() { n = record(1, 2, 3); }", natives={"record": record}
        )
        assert seen == [(1, 2, 3)]
        assert mvars["n"] == 3

    def test_call_as_statement_discards_value(self):
        commands, mvars, _ = execute(
            "f() { record(9); }", natives={"record": lambda x: x}
        )
        assert mvars == {}


class TestNavigationCommands:
    def test_hop_command_fields(self):
        program = compile_source('f() { hop(ln = "b"; ll = "x"; ldir = +); }')
        frame = Frame(program)
        command = run(frame, {}, {}, lambda n: None, lambda n, a: None)
        assert isinstance(command, HopCommand)
        assert (command.ln, command.ll, command.ldir) == ("b", "x", "+")

    def test_hop_counts_instructions(self):
        program = compile_source("f(a) { x = a + 2; hop(); }")
        frame = Frame(program)
        command = run(frame, {"a": 1}, {}, lambda n: None, lambda n, a: None)
        assert command.instructions > 3

    def test_constant_expressions_fold_at_compile_time(self):
        # 1 + 2 folds to one CONST, so only CONST, STORE, HOP execute.
        program = compile_source("f() { x = 1 + 2; hop(); }")
        frame = Frame(program)
        command = run(frame, {}, {}, lambda n: None, lambda n, a: None)
        assert command.instructions == 3

    def test_numeric_node_name_coerced(self):
        program = compile_source("f(i) { hop(ln = i); }")
        frame = Frame(program)
        command = run(
            frame, {"i": 3}, {}, lambda n: None, lambda n, a: None
        )
        assert command.ln == "3"

    def test_delete_command(self):
        program = compile_source('f() { delete(ll = "tmp"); }')
        frame = Frame(program)
        command = run(frame, {}, {}, lambda n: None, lambda n, a: None)
        assert isinstance(command, DeleteCommand)
        assert command.ll == "tmp"

    def test_create_all_command(self):
        program = compile_source("f() { create(ALL); }")
        frame = Frame(program)
        command = run(frame, {}, {}, lambda n: None, lambda n, a: None)
        assert isinstance(command, CreateCommand)
        assert command.all_daemons
        assert command.items[0].ln is None  # unnamed

    def test_create_resolved_items_in_order(self):
        program = compile_source(
            'f() { create(ln = "a", "b"; ll = "x", "y"; ldir = +); }'
        )
        frame = Frame(program)
        command = run(frame, {}, {}, lambda n: None, lambda n, a: None)
        assert [(i.ln, i.ll, i.ldir) for i in command.items] == [
            ("a", "x", "+"),
            ("b", "y", "+"),
        ]

    def test_execution_resumes_after_hop(self):
        program = compile_source("f() { x = 1; hop(); x = 2; }")
        frame = Frame(program)
        mvars = {}
        first = run(frame, mvars, {}, lambda n: None, lambda n, a: None)
        assert isinstance(first, HopCommand)
        assert mvars["x"] == 1
        second = run(frame, mvars, {}, lambda n: None, lambda n, a: None)
        assert isinstance(second, DoneCommand)
        assert mvars["x"] == 2


class TestScheduling:
    def test_sched_abs(self):
        program = compile_source("f() { M_sched_time_abs(2.5); }")
        frame = Frame(program)
        command = run(frame, {}, {}, lambda n: None, lambda n, a: None)
        assert isinstance(command, SchedCommand)
        assert (command.kind, command.time) == ("abs", 2.5)

    def test_sched_dlt(self):
        program = compile_source("f() { M_sched_time_dlt(0.5); }")
        frame = Frame(program)
        command = run(frame, {}, {}, lambda n: None, lambda n, a: None)
        assert (command.kind, command.time) == ("dlt", 0.5)

    def test_sched_wrong_arity_rejected(self):
        with pytest.raises(CompileError):
            compile_source("f() { M_sched_time_abs(1, 2); }")

    def test_sched_non_numeric_time_raises(self):
        program = compile_source('f() { M_sched_time_abs("soon"); }')
        frame = Frame(program)
        with pytest.raises(MclRuntimeError):
            run(frame, {}, {}, lambda n: None, lambda n, a: None)


class TestFrameCloning:
    def test_clone_resumes_independently(self):
        program = compile_source("f() { x = 1; hop(); x = x + 10; }")
        frame = Frame(program)
        mvars = {}
        run(frame, mvars, {}, lambda n: None, lambda n, a: None)
        clone = frame.clone()
        mvars_a, mvars_b = dict(mvars), dict(mvars)
        run(frame, mvars_a, {}, lambda n: None, lambda n, a: None)
        run(clone, mvars_b, {}, lambda n: None, lambda n, a: None)
        assert mvars_a["x"] == 11
        assert mvars_b["x"] == 11
