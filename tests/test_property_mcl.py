"""Property-based tests for the MCL language pipeline (hypothesis).

Strategy: generate random *expression ASTs* in textual form together
with an equivalent Python evaluation, compile and run both, and compare
— the VM's arithmetic must agree with C-like reference semantics.
Statement-level properties cover loop counting and variable scoping.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.messengers.mcl import DoneCommand, Frame, compile_source, run
from repro.messengers.mcl.lexer import tokenize

# -- random integer expressions ------------------------------------------------


@st.composite
def int_expressions(draw, depth=0):
    """(source_text, python_value) pairs for integer expressions."""
    if depth > 3 or draw(st.booleans()):
        value = draw(st.integers(min_value=0, max_value=99))
        return str(value), value
    op = draw(st.sampled_from(["+", "-", "*", "/", "%"]))
    left_src, left_val = draw(int_expressions(depth=depth + 1))
    right_src, right_val = draw(int_expressions(depth=depth + 1))
    if op in ("/", "%"):
        assume(right_val != 0)
    if op == "+":
        value = left_val + right_val
    elif op == "-":
        value = left_val - right_val
    elif op == "*":
        value = left_val * right_val
    elif op == "/":
        value = left_val // right_val  # C integer division
    else:
        value = left_val % right_val
    return f"({left_src} {op} {right_src})", value


def run_script(source):
    program = compile_source(source)
    frame = Frame(program)
    mvars: dict = {}
    command = run(frame, mvars, {}, lambda n: None, lambda n, a: None)
    assert isinstance(command, DoneCommand)
    return mvars


class TestExpressionProperties:
    @given(expr=int_expressions())
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_matches_reference(self, expr):
        source, expected = expr
        mvars = run_script(f"f() {{ result = {source}; }}")
        assert mvars["result"] == expected

    @given(
        a=st.integers(min_value=-100, max_value=100),
        b=st.integers(min_value=-100, max_value=100),
    )
    def test_comparisons_are_total(self, a, b):
        mvars = run_script(
            f"f() {{ lt = {a} < {b}; ge = {a} >= {b}; "
            f"eq = {a} == {b}; ne = {a} != {b}; }}"
        )
        assert mvars["lt"] == int(a < b)
        assert mvars["ge"] == int(a >= b)
        assert mvars["eq"] == int(a == b)
        assert mvars["ne"] == int(a != b)
        assert mvars["lt"] != mvars["ge"]
        assert mvars["eq"] != mvars["ne"]

    @given(x=st.integers(min_value=0, max_value=1000),
           m=st.integers(min_value=1, max_value=50))
    def test_mod_keyword_equals_operator(self, x, m):
        mvars = run_script(
            f"f() {{ kw = {x} mod {m}; op = {x} % {m}; }}"
        )
        assert mvars["kw"] == mvars["op"] == x % m


class TestStatementProperties:
    @given(n=st.integers(min_value=0, max_value=200))
    @settings(deadline=None)
    def test_for_loop_counts_exactly(self, n):
        mvars = run_script(
            f"f() {{ count = 0; for (i = 0; i < {n}; i++) count++; }}"
        )
        assert mvars["count"] == n

    @given(n=st.integers(min_value=0, max_value=100))
    @settings(deadline=None)
    def test_while_equals_for(self, n):
        loop_for = run_script(
            f"f() {{ s = 0; for (i = 0; i < {n}; i++) s += i; }}"
        )
        loop_while = run_script(
            f"f() {{ s = 0; i = 0; while (i < {n}) {{ s += i; i++; }} }}"
        )
        assert loop_for["s"] == loop_while["s"] == n * (n - 1) // 2

    @given(values=st.lists(
        st.integers(min_value=-50, max_value=50), min_size=1, max_size=8,
    ))
    @settings(deadline=None)
    def test_max_via_if_chain(self, values):
        statements = ["best = v0;"]
        for index in range(1, len(values)):
            statements.append(
                f"if (v{index} > best) best = v{index};"
            )
        params = ", ".join(f"v{i}" for i in range(len(values)))
        source = f"f({params}) {{ {' '.join(statements)} }}"
        program = compile_source(source)
        frame = Frame(program)
        mvars = {f"v{i}": v for i, v in enumerate(values)}
        run(frame, mvars, {}, lambda n: None, lambda n, a: None)
        assert mvars["best"] == max(values)


class TestLexerProperties:
    @given(names=st.lists(
        st.from_regex(r"[a-z_][a-z0-9_]{0,10}", fullmatch=True),
        min_size=1, max_size=10,
    ))
    def test_identifier_round_trip(self, names):
        from repro.messengers.mcl.lexer import KEYWORDS

        assume(all(name not in KEYWORDS for name in names))
        tokens = tokenize(" ".join(names))
        assert [t.text for t in tokens[:-1]] == names
        assert all(t.kind == "IDENT" for t in tokens[:-1])

    @given(text=st.text(
        alphabet=st.characters(
            whitelist_categories=("Lu", "Ll", "Nd"),
            whitelist_characters=" _",
        ),
        max_size=40,
    ))
    def test_string_literal_round_trip(self, text):
        tokens = tokenize(f'"{text}"')
        assert tokens[0].kind == "STRING"
        assert tokens[0].text == text

    @given(value=st.integers(min_value=0, max_value=10**9))
    def test_integer_literal_round_trip(self, value):
        mvars = run_script(f"f() {{ x = {value}; }}")
        assert mvars["x"] == value


class TestCloneProperties:
    @given(
        pre=st.integers(min_value=0, max_value=20),
        post_a=st.integers(min_value=0, max_value=20),
        post_b=st.integers(min_value=0, max_value=20),
    )
    @settings(deadline=None)
    def test_cloned_frames_diverge_independently(self, pre, post_a, post_b):
        """Cloning at a hop point gives two futures that never alias."""
        source = f"""
        f(extra) {{
            x = {pre};
            hop();
            for (i = 0; i < extra; i++) x++;
        }}
        """
        program = compile_source(source)
        frame_a = Frame(program)
        vars_a = {"extra": post_a}
        run(frame_a, vars_a, {}, lambda n: None, lambda n, a: None)

        frame_b = frame_a.clone()
        vars_b = dict(vars_a)
        vars_b["extra"] = post_b

        run(frame_a, vars_a, {}, lambda n: None, lambda n, a: None)
        run(frame_b, vars_b, {}, lambda n: None, lambda n, a: None)
        assert vars_a["x"] == pre + post_a
        assert vars_b["x"] == pre + post_b
