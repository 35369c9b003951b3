"""Unit tests for the MCL lexer."""

import pytest

from repro.messengers.mcl.lexer import LexError, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source) if t.kind != "EOF"]


class TestBasicTokens:
    def test_identifiers_and_keywords(self):
        assert kinds("foo while hop create") == [
            "IDENT",
            "while",
            "hop",
            "create",
            "EOF",
        ]

    def test_numbers(self):
        tokens = tokenize("1 23 4.5 0.25 1e3 2.5e-2")
        assert [t.kind for t in tokens[:-1]] == ["NUMBER"] * 6
        assert [t.text for t in tokens[:-1]] == [
            "1",
            "23",
            "4.5",
            "0.25",
            "1e3",
            "2.5e-2",
        ]

    def test_strings_with_escapes(self):
        tokens = tokenize(r'"row" "a\nb" "say \"hi\""')
        assert [t.text for t in tokens[:-1]] == ["row", "a\nb", 'say "hi"']

    def test_netvars(self):
        tokens = tokenize("$address $last")
        assert [(t.kind, t.text) for t in tokens[:-1]] == [
            ("NETVAR", "address"),
            ("NETVAR", "last"),
        ]

    def test_operators_maximal_munch(self):
        tokens = tokenize("a==b a=b a<=b a++ a&&b")
        ops = [t.kind for t in tokens if t.kind not in ("IDENT", "EOF")]
        assert ops == ["==", "=", "<=", "++", "&&"]

    def test_mod_keyword(self):
        assert kinds("(j - i) mod m")[:-1] == [
            "(",
            "IDENT",
            "-",
            "IDENT",
            ")",
            "mod",
            "IDENT",
        ]


class TestCommentsAndWhitespace:
    def test_line_comment(self):
        assert texts("a // comment here\nb") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* multi\nline */ b") == ["a", "b"]

    def test_line_numbers_across_newlines(self):
        tokens = tokenize("a\nb\n\nc")
        assert [(t.text, t.line) for t in tokens[:-1]] == [
            ("a", 1),
            ("b", 2),
            ("c", 4),
        ]

    def test_line_numbers_after_block_comment(self):
        tokens = tokenize("/* one\ntwo */ x")
        assert tokens[0].line == 2


class TestLexErrors:
    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            tokenize('"ab\ncd"')

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_bare_dollar(self):
        with pytest.raises(LexError):
            tokenize("$ x")

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("a ` b")

    def test_error_carries_position(self):
        with pytest.raises(LexError) as info:
            tokenize("ok\n   `")
        assert info.value.line == 2
