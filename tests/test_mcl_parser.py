"""Unit tests for the MCL parser."""

import pytest

from repro.messengers.mcl import parse
from repro.messengers.mcl.parser import ParseError
from repro.messengers.mcl import ast


def parse_function(source):
    """The one function ``source`` defines."""
    return parse(source).function()


class TestFunctions:
    def test_parameters(self):
        fn = parse_function("f(a, b, c) { x = 1; }")
        assert fn.name == "f"
        assert fn.params == ["a", "b", "c"]

    def test_no_parameters(self):
        fn = parse_function("f() { x = 1; }")
        assert fn.params == []

    def test_multiple_functions(self):
        script = parse("f() { x = 1; } g(y) { z = y; }")
        assert sorted(script.functions) == ["f", "g"]
        assert script.function("g").params == ["y"]

    def test_ambiguous_unnamed_lookup(self):
        script = parse("f() { x = 1; } g() { x = 2; }")
        with pytest.raises(KeyError):
            script.function()

    def test_missing_function_lookup(self):
        script = parse("f() { x = 1; }")
        with pytest.raises(KeyError):
            script.function("nope")

    def test_duplicate_function_rejected(self):
        with pytest.raises(ParseError):
            parse("f() { x = 1; } f() { x = 2; }")

    def test_empty_script_rejected(self):
        with pytest.raises(ParseError):
            parse("   ")


class TestDeclarations:
    def test_node_vars_collected(self):
        fn = parse_function("f() { node a, b; node c; x = 1; }")
        assert fn.node_vars == ["a", "b", "c"]

    def test_node_decl_after_statement_rejected(self):
        with pytest.raises(ParseError):
            parse_function("f() { x = 1; node a; }")


class TestStatements:
    def test_assignment_variants(self):
        fn = parse_function("f() { x = 1; x += 2; x -= 3; x *= 4; x /= 5; }")
        ops = [s.op for s in fn.body.statements]
        assert ops == ["=", "+=", "-=", "*=", "/="]

    def test_increment_decrement(self):
        fn = parse_function("f() { i++; j--; }")
        first, second = fn.body.statements
        assert (first.op, second.op) == ("+=", "-=")

    def test_if_else(self):
        fn = parse_function("f() { if (x > 0) y = 1; else y = 2; }")
        stmt = fn.body.statements[0]
        assert isinstance(stmt, ast.If)
        assert stmt.else_body is not None

    def test_while(self):
        fn = parse_function("f() { while (i < 10) i++; }")
        assert isinstance(fn.body.statements[0], ast.While)

    def test_for_with_all_clauses(self):
        fn = parse_function("f() { for (i = 0; i < 3; i++) x = i; }")
        stmt = fn.body.statements[0]
        assert isinstance(stmt, ast.For)
        assert stmt.init is not None and stmt.step is not None

    def test_for_with_empty_clauses(self):
        fn = parse_function("f() { for (;;) break; }")
        stmt = fn.body.statements[0]
        assert stmt.init is None and stmt.condition is None

    def test_return_with_value(self):
        fn = parse_function("f() { return 1 + 2; }")
        assert isinstance(fn.body.statements[0], ast.Return)

    def test_assignment_expression(self):
        fn = parse_function("f() { while ((task = next()) != 0) use(task); }")
        condition = fn.body.statements[0].condition
        assert isinstance(condition, ast.BinOp)
        assert isinstance(condition.left, ast.AssignExpr)


class TestNavigationParsing:
    def test_hop_defaults(self):
        fn = parse_function("f() { hop(); }")
        spec = fn.body.statements[0].spec
        assert spec.ln is ast.WILDCARD
        assert spec.ll is ast.WILDCARD
        assert spec.ldir == "*"

    def test_hop_full_spec(self):
        fn = parse_function('f() { hop(ln = *; ll = "x"; ldir = -); }')
        spec = fn.body.statements[0].spec
        assert spec.ln is ast.WILDCARD
        assert isinstance(spec.ll, ast.Str) and spec.ll.value == "x"
        assert spec.ldir == "-"

    def test_hop_with_netvar_link(self):
        fn = parse_function("f() { hop(ll = $last); }")
        spec = fn.body.statements[0].spec
        assert isinstance(spec.ll, ast.NetVar)

    def test_hop_to_init(self):
        fn = parse_function("f() { hop(ln = init; ll = virtual); }")
        spec = fn.body.statements[0].spec
        assert spec.ln.value == "init"
        assert spec.ll.value == "virtual"

    def test_hop_bad_field_rejected(self):
        with pytest.raises(ParseError):
            parse_function("f() { hop(dn = *); }")

    def test_delete_statement(self):
        fn = parse_function('f() { delete(ll = "temp"); }')
        assert isinstance(fn.body.statements[0], ast.Delete)

    def test_create_all(self):
        fn = parse_function("f() { create(ALL); }")
        stmt = fn.body.statements[0]
        assert stmt.all_daemons
        assert len(stmt.items) == 1
        assert stmt.items[0].ln is ast.UNNAMED

    def test_create_named_pairs(self):
        fn = parse_function(
            'f() { create(ln = "a", "b"; ll = "x", "y"); }'
        )
        stmt = fn.body.statements[0]
        assert [item.ln.value for item in stmt.items] == ["a", "b"]
        assert [item.ll.value for item in stmt.items] == ["x", "y"]

    def test_create_broadcast_scalar_fields(self):
        fn = parse_function(
            'f() { create(ln = "a", "b"; ldir = +); }'
        )
        stmt = fn.body.statements[0]
        assert [item.ldir for item in stmt.items] == ["+", "+"]

    def test_create_mismatched_widths_rejected(self):
        with pytest.raises(ParseError):
            parse_function(
                'f() { create(ln = "a", "b", "c"; ll = "x", "y"); }'
            )

    def test_create_with_daemon_spec(self):
        fn = parse_function(
            'f() { create(ln = "w"; dn = "host3"); }'
        )
        item = fn.body.statements[0].items[0]
        assert item.dn.value == "host3"

    def test_ldir_requires_direction_token(self):
        with pytest.raises(ParseError):
            parse_function('f() { hop(ldir = "x"); }')


class TestExpressionPrecedence:
    def test_mod_binds_like_multiplication(self):
        fn = parse_function("f() { x = a + b mod m; }")
        expr = fn.body.statements[0].expr
        assert expr.op == "+"
        assert expr.right.op == "%"

    def test_parenthesized_mod(self):
        fn = parse_function("f() { x = (j - i) mod m; }")
        expr = fn.body.statements[0].expr
        assert expr.op == "%"

    def test_comparison_chain(self):
        fn = parse_function("f() { x = a < b == c; }")
        expr = fn.body.statements[0].expr
        assert expr.op == "=="

    def test_logical_operators(self):
        fn = parse_function("f() { x = a && b || !c; }")
        expr = fn.body.statements[0].expr
        assert expr.op == "||"

    def test_unary_minus(self):
        fn = parse_function("f() { x = -y * 2; }")
        expr = fn.body.statements[0].expr
        assert expr.op == "*"
        assert isinstance(expr.left, ast.UnOp)

    def test_call_arguments(self):
        fn = parse_function("f() { x = g(1, a + 2, \"s\"); }")
        call = fn.body.statements[0].expr
        assert isinstance(call, ast.Call)
        assert len(call.args) == 3

    def test_missing_semicolon_rejected(self):
        with pytest.raises(ParseError):
            parse_function("f() { x = 1 }")
