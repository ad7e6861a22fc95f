"""The regex lexer against the hand-written reference lexer.

Both must agree on every token ``(kind, value, line, column)`` and on every
:class:`LexError` ``(message, line, column)``.  The one permitted
difference: a character that passes ``str.isdigit()`` but not
``str.isdecimal()`` (``²``, ``①``).  The reference lexes it into an INT
token the parser cannot evaluate; the regex lexer rejects it as an
unexpected character, so such input ends in a typed error either way.
"""

from __future__ import annotations

import functools
import time

import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import LexError
from repro.frontend.lexer import TokenKind, tokenize
from repro.frontend.parser import parse_source
from repro.frontend.preprocessor import preprocess

from tests.frontend.lexer_reference import Lexer, reference_tokenize
from tests.frontend.mutations import corpus_sources, mutated_sources


def outcome(tokenizer, text):
    """The token list, or the error as ``(message, line, column)``."""
    try:
        return tokenizer(text)
    except LexError as error:
        return str(error), error.line, error.column


def reference_tokens(text):
    """The reference's tokens, up to its first error if it raises one."""
    lexer = Lexer(text)
    tokens = []
    try:
        while not tokens or tokens[-1].kind is not TokenKind.EOF:
            tokens.append(lexer.next_token())
    except LexError:
        pass
    return tokens


def non_decimal_digit(tokens):
    """Where the reference first put a digit that is not a decimal digit
    into an INT token: ``(character, line, column)``, or None."""
    for token in tokens:
        if token.kind is TokenKind.INT:
            for index, char in enumerate(token.value):
                if char.isdigit() and not char.isdecimal():
                    return char, token.line, token.column + index
    return None


def assert_matches_reference(text):
    divergence = non_decimal_digit(reference_tokens(text))
    if divergence is None:
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)
        return
    char, line, column = divergence
    with pytest.raises(LexError, match=f"unexpected character {char!r}") as excinfo:
        tokenize(text)
    assert (excinfo.value.line, excinfo.value.column) == (line, column)


class TestCorpusAgreement:
    def test_every_corpus_file_raw_and_preprocessed(self):
        for text in corpus_sources():
            # Raw files stop at their first "#" directive; preprocessed ones lex through.
            assert outcome(tokenize, text) == outcome(reference_tokenize, text)
            preprocessed = preprocess(text).text
            assert tokenize(preprocessed) == reference_tokenize(preprocessed)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_sources())
    def test_mutated_corpus_text(self, text):
        assert_matches_reference(text)


class TestRegexTraps:
    """Inputs where a naive master regex parts ways with the reference."""

    @pytest.mark.parametrize(
        "text",
        ["a // b", "a //", "//", "a /// b\nc", "a //* b */ c", "x // y\n/", "a // \"'\n/ b", "a //\\\nb"],
    )
    def test_line_comment_is_never_re_read_as_slashes(self, text):
        assert_matches_reference(text)

    @pytest.mark.parametrize(
        "text",
        ["a / /* x", "a /* x", "/*", "/*/", "a //\n/* x", "x = a//*\n/* b", "a /*/ b", "a /**", "a/ /*\n\n b"],
    )
    def test_slash_before_unterminated_block_comment(self, text):
        assert_matches_reference(text)
        with pytest.raises(LexError, match="unterminated block comment"):
            tokenize(text)

    @pytest.mark.parametrize(
        "text",
        [
            r'"a\"',
            r'"a\"b"',
            r"'\''",
            r"'\'",
            r'"\\"',
            r'"\\\"',
            '"abc\\',
            "'\\",
            '"a\\\nb" c',
            "'\\\n' x",
            '"a\\"\n',
            r'"\" x" y',
        ],
    )
    def test_backslash_before_closing_quote(self, text):
        assert_matches_reference(text)

    def test_block_comment_error_line_and_column(self):
        # The reference reports the comment's first line with the column
        # reached at the end of the text.
        text = "a\n  /* open\nmore text"
        expected = ("<memory>:2:10: unterminated block comment", 2, 10)
        assert outcome(tokenize, text) == outcome(reference_tokenize, text) == expected


class TestNonDecimalDigits:
    def test_reference_lexes_superscript_as_int(self):
        assert [t.value for t in reference_tokenize("x = 1²;")] == ["x", "=", "1²", ";", ""]

    @pytest.mark.parametrize("text, column", [("x = ²;", 5), ("x = 1²;", 6), ("x = 1.²;", 7), ("x = 0x²;", 7)])
    def test_regex_lexer_rejects_it(self, text, column):
        with pytest.raises(LexError, match="unexpected character '²'") as excinfo:
            tokenize(text)
        assert (excinfo.value.line, excinfo.value.column) == (1, column)
        assert_matches_reference(text)

    def test_parser_sees_a_typed_error(self):
        with pytest.raises(LexError):
            parse_source("int f(void){ return ²; }")

    @pytest.mark.parametrize("text", ["x = ½;", "x½ = 1;", "x² = 1;", "é = 1;", "x = Ⅻ;"])
    def test_other_numeric_and_letter_characters_agree(self, text):
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)


SIZE = 200_000

#: Inputs built to make a backtracking scanner go quadratic.
ADVERSARIAL = {
    "open_comments": "/*" * (SIZE // 2),
    "close_comments": "*/" * (SIZE // 2),
    "unterminated_backslashes": '"' + "\\" * (SIZE - 1),
    "tokens_then_open_comment": "a " * ((SIZE - 4) // 2) + "/* x",
    "blank_lines": " \n" * (SIZE // 2),
}


@functools.lru_cache(maxsize=None)
def best_time(text, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            tokenize(text)
        except LexError:
            pass
        best = min(best, time.perf_counter() - start)
    return best


class TestNoHang:
    """200k-character adversarial inputs lex in linear time: no slower than
    a same-size input of plain tokens, within a wide margin for noise."""

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_linear_and_agrees_with_reference(self, name):
        text = ADVERSARIAL[name]
        assert len(text) == SIZE
        assert best_time(text) <= 4 * best_time("a " * (SIZE // 2))
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)
