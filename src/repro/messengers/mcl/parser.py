"""Recursive-descent parser for MCL.

Grammar (informal)::

    script    := function+
    function  := IDENT '(' [IDENT (',' IDENT)*] ')' block
    block     := '{' statement* '}'
    statement := 'node' identlist ';'
               | 'hop' '(' navspec ')' ';'
               | 'delete' '(' navspec ')' ';'
               | 'create' '(' createspec ')' ';'
               | 'if' '(' expr ')' statement ['else' statement]
               | 'while' '(' expr ')' statement
               | 'for' '(' [simple] ';' [expr] ';' [simple] ')' statement
               | 'return' [expr] ';'
               | 'break' ';' | 'continue' ';'
               | block
               | simple ';'
    simple    := lvalue ('='|'+='|'-='|'*='|'/=') expr
               | lvalue ('++'|'--')
               | expr                      (native call, usually)
    navspec   := [navitem (';' navitem)*]
    navitem   := ('ln'|'ll'|'ldir') '=' navvalue
    createspec:= [citem (';' citem)*] [';' 'ALL']
    citem     := key '=' navvalue (',' navvalue)*   ; key ∈ ln ll ldir dn dl ddir
    navvalue  := '*' | '~' | '+' | '-' | expr

Expressions use C precedence; ``mod`` is accepted as a synonym for ``%``
(the paper writes ``(j-i) mod m``), and ``and``/``or``/``not`` as
synonyms for ``&&``/``||``/``!``.
"""

from __future__ import annotations

from typing import Optional

from . import ast
from .lexer import Token, tokenize

__all__ = ["ParseError", "parse"]

_NAV_KEYS = ("ln", "ll", "ldir")
_CREATE_KEYS = ("ln", "ll", "ldir", "dn", "dl", "ddir")
_DIRECTION_TOKENS = ("+", "-", "*")


class ParseError(SyntaxError):
    """Malformed MCL source."""

    def __init__(self, message: str, token: Token):
        super().__init__(
            f"{message} at line {token.line}, column {token.column} "
            f"(found {token.kind!r})"
        )
        self.token = token


def parse(source: str) -> ast.Script:
    """Parse MCL source into a :class:`~.ast.Script`."""
    return _Parser(tokenize(source)).parse_script()


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._current
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _check(self, kind: str) -> bool:
        return self._current.kind == kind

    def _accept(self, kind: str) -> Optional[Token]:
        if self._check(kind):
            return self._advance()
        return None

    def _expect(self, kind: str) -> Token:
        if not self._check(kind):
            raise ParseError(f"expected {kind!r}", self._current)
        return self._advance()

    # -- top level ----------------------------------------------------------

    def parse_script(self) -> ast.Script:
        functions: dict[str, ast.Function] = {}
        while not self._check("EOF"):
            function = self._function()
            if function.name in functions:
                raise ParseError(
                    f"duplicate function {function.name!r}", self._current
                )
            functions[function.name] = function
        if not functions:
            raise ParseError("empty script", self._current)
        return ast.Script(functions)

    def _function(self) -> ast.Function:
        name = self._expect("IDENT").text
        self._expect("(")
        params = []
        if not self._check(")"):
            params.append(self._expect("IDENT").text)
            while self._accept(","):
                params.append(self._expect("IDENT").text)
        self._expect(")")
        body, node_vars = self._block(collect_decls=True)
        return ast.Function(name, params, node_vars, body)

    def _block(self, collect_decls: bool = False):
        """Parse a brace-delimited block.

        ``node`` declarations are only legal at the top of a function
        body (``collect_decls=True``), before any statement — the same
        place C expects declarations.
        """
        self._expect("{")
        statements = []
        node_vars: list[str] = []
        while not self._check("}"):
            if self._check("node"):
                if not collect_decls or statements:
                    raise ParseError(
                        "node declarations must appear at the top of the "
                        "function body",
                        self._current,
                    )
                node_vars.extend(self._node_decl())
            else:
                statements.append(self._statement(node_vars))
        self._expect("}")
        block = ast.Block(statements)
        if collect_decls:
            return block, node_vars
        return block

    def _node_decl(self) -> list[str]:
        self._expect("node")
        names = [self._expect("IDENT").text]
        while self._accept(","):
            names.append(self._expect("IDENT").text)
        self._expect(";")
        return names

    # -- statements -------------------------------------------------------------

    def _statement(self, node_vars: list) -> object:
        kind = self._current.kind
        if kind == "{":
            return self._block()
        if kind == "hop":
            return self._hop_or_delete(ast.Hop)
        if kind == "delete":
            return self._hop_or_delete(ast.Delete)
        if kind == "create":
            return self._create()
        if kind == "if":
            return self._if(node_vars)
        if kind == "while":
            return self._while(node_vars)
        if kind == "for":
            return self._for(node_vars)
        if kind == "return":
            self._advance()
            expr = None if self._check(";") else self._expression()
            self._expect(";")
            return ast.Return(expr)
        if kind == "break":
            self._advance()
            self._expect(";")
            return ast.Break()
        if kind == "continue":
            self._advance()
            self._expect(";")
            return ast.Continue()
        if kind == "node":
            raise ParseError(
                "node declarations must precede statements", self._current
            )
        statement = self._simple()
        self._expect(";")
        return statement

    def _wrap_block(self, statement) -> ast.Block:
        if isinstance(statement, ast.Block):
            return statement
        return ast.Block([statement])

    def _if(self, node_vars) -> ast.If:
        self._expect("if")
        self._expect("(")
        condition = self._expression()
        self._expect(")")
        then_body = self._wrap_block(self._statement(node_vars))
        else_body = None
        if self._accept("else"):
            else_body = self._wrap_block(self._statement(node_vars))
        return ast.If(condition, then_body, else_body)

    def _while(self, node_vars) -> ast.While:
        self._expect("while")
        self._expect("(")
        condition = self._expression()
        self._expect(")")
        body = self._wrap_block(self._statement(node_vars))
        return ast.While(condition, body)

    def _for(self, node_vars) -> ast.For:
        self._expect("for")
        self._expect("(")
        init = None if self._check(";") else self._simple()
        self._expect(";")
        condition = None if self._check(";") else self._expression()
        self._expect(";")
        step = None if self._check(")") else self._simple()
        self._expect(")")
        body = self._wrap_block(self._statement(node_vars))
        return ast.For(init, condition, step, body)

    def _simple(self) -> object:
        """Assignment, indexed assignment, increment, or expression."""
        if self._check("IDENT") or self._check("NETVAR"):
            is_netvar = self._check("NETVAR")
            next_kind = self._peek().kind
            if next_kind in ("=", "+=", "-=", "*=", "/="):
                target = self._advance().text
                op = self._advance().kind
                expr = self._expression()
                return ast.Assign(target, op, expr, is_netvar=is_netvar)
            if next_kind in ("++", "--"):
                target = self._advance().text
                op = self._advance().kind
                one = ast.Num(1)
                return ast.Assign(
                    target,
                    "+=" if op == "++" else "-=",
                    one,
                    is_netvar=is_netvar,
                )
            if next_kind == "[" and not is_netvar:
                # Possible `name[index] op= expr`; backtrack to an
                # expression statement if no assignment operator follows.
                saved = self._pos
                target = self._advance().text
                self._advance()  # '['
                index = self._expression()
                self._expect("]")
                if self._current.kind in ("=", "+=", "-=", "*=", "/="):
                    op = self._advance().kind
                    expr = self._expression()
                    return ast.IndexAssign(target, index, op, expr)
                self._pos = saved
        return ast.ExprStmt(self._expression())

    # -- navigation --------------------------------------------------------------

    def _nav_value(self, key: str):
        """Parse one navigation-spec value, context-sensitively."""
        if key in ("ldir", "ddir"):
            for direction in _DIRECTION_TOKENS:
                if self._accept(direction):
                    return direction
            raise ParseError("expected +, - or *", self._current)
        if self._accept("*"):
            return ast.WILDCARD
        if self._accept("~"):
            return ast.UNNAMED
        if self._check("IDENT") and self._current.text == "init":
            self._advance()
            return ast.Str("init")
        if self._check("IDENT") and self._current.text == "virtual":
            self._advance()
            return ast.Str("virtual")
        return self._expression()

    def _hop_or_delete(self, ctor):
        self._advance()  # hop / delete
        self._expect("(")
        spec = ast.NavSpec()
        if not self._check(")"):
            while True:
                key = self._expect("IDENT").text
                if key not in _NAV_KEYS:
                    raise ParseError(
                        f"bad hop field {key!r} (want ln/ll/ldir)",
                        self._current,
                    )
                self._expect("=")
                setattr(spec, key, self._nav_value(key))
                if not self._accept(";"):
                    break
        self._expect(")")
        self._expect(";")
        return ctor(spec)

    def _create(self) -> ast.Create:
        self._advance()  # create
        self._expect("(")
        columns: dict[str, list] = {}
        all_daemons = False
        if not self._check(")"):
            while True:
                if self._check("ALL"):
                    self._advance()
                    all_daemons = True
                    break
                key = self._expect("IDENT").text
                if key not in _CREATE_KEYS:
                    raise ParseError(
                        f"bad create field {key!r} "
                        "(want ln/ll/ldir/dn/dl/ddir or ALL)",
                        self._current,
                    )
                self._expect("=")
                values = [self._nav_value(key)]
                while self._accept(","):
                    values.append(self._nav_value(key))
                if key in columns:
                    raise ParseError(
                        f"duplicate create field {key!r}", self._current
                    )
                columns[key] = values
                if not self._accept(";"):
                    break
        self._expect(")")
        self._expect(";")

        width = max((len(v) for v in columns.values()), default=1)
        for key, values in columns.items():
            if len(values) not in (1, width):
                raise ParseError(
                    f"create field {key!r} has {len(values)} values; "
                    f"other fields have {width}",
                    self._current,
                )
        items = []
        for index in range(width):
            fields = {}
            for key, values in columns.items():
                fields[key] = values[index] if len(values) > 1 else values[0]
            items.append(ast.CreateItem(**fields))
        if not items:
            items = [ast.CreateItem()]
        return ast.Create(items, all_daemons)

    # -- expressions (C precedence) ----------------------------------------------

    def _expression(self):
        # C-style assignment expressions: `task = next_task()` inside a
        # condition assigns and yields the value (used by Figure 3).
        if self._check("IDENT") and self._peek().kind == "=":
            target = self._advance().text
            self._advance()  # '='
            return ast.AssignExpr(target, self._expression())
        return self._or()

    def _or(self):
        left = self._and()
        while self._check("||") or self._check("or"):
            self._advance()
            right = self._and()
            left = ast.BinOp("||", left, right)
        return left

    def _and(self):
        left = self._equality()
        while self._check("&&") or self._check("and"):
            self._advance()
            right = self._equality()
            left = ast.BinOp("&&", left, right)
        return left

    def _equality(self):
        left = self._relational()
        while self._check("==") or self._check("!="):
            op = self._advance().kind
            left = ast.BinOp(op, left, self._relational())
        return left

    def _relational(self):
        left = self._additive()
        while self._current.kind in ("<", ">", "<=", ">="):
            op = self._advance().kind
            left = ast.BinOp(op, left, self._additive())
        return left

    def _additive(self):
        left = self._multiplicative()
        while self._current.kind in ("+", "-"):
            op = self._advance().kind
            left = ast.BinOp(op, left, self._multiplicative())
        return left

    def _multiplicative(self):
        left = self._unary()
        while self._current.kind in ("*", "/", "%", "mod"):
            op = self._advance().kind
            if op == "mod":
                op = "%"
            left = ast.BinOp(op, left, self._unary())
        return left

    def _unary(self):
        if self._check("-"):
            self._advance()
            return ast.UnOp("-", self._unary())
        if self._check("!") or self._check("not"):
            self._advance()
            return ast.UnOp("!", self._unary())
        return self._primary()

    def _primary(self):
        token = self._current
        if token.kind == "NUMBER":
            self._advance()
            text = token.text
            value = float(text) if ("." in text or "e" in text.lower()) else int(text)
            return ast.Num(value)
        if token.kind == "STRING":
            self._advance()
            return ast.Str(token.text)
        if token.kind == "NETVAR":
            self._advance()
            return ast.NetVar(token.text)
        if token.kind == "IDENT":
            name = self._advance().text
            if self._accept("("):
                args = []
                if not self._check(")"):
                    args.append(self._expression())
                    while self._accept(","):
                        args.append(self._expression())
                self._expect(")")
                return self._postfix(ast.Call(name, args))
            return self._postfix(ast.Var(name))
        if token.kind == "(":
            self._advance()
            expr = self._expression()
            self._expect(")")
            return self._postfix(expr)
        raise ParseError("expected an expression", token)

    def _postfix(self, expr):
        """Zero or more ``[index]`` subscripts after a primary."""
        while self._accept("["):
            index = self._expression()
            self._expect("]")
            expr = ast.Index(expr, index)
        return expr
