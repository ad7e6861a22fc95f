"""Regex lexer for the MiniC dialect.

Produces a flat, EOF-terminated token stream with line/column information.
Comments are skipped but the raw source is retained by callers (several
pruning strategies in :mod:`repro.core.pruning` match against raw source
text, e.g. ``/* unused */`` markers).

One compiled pattern does all the per-character work; :func:`tokenize`
walks its matches (:data:`_SCANNER`).  Each match consumes the trivia
(whitespace and comments) before a token, then at most one token, whose
capture group names its kind.  The token group is optional, so the
pattern matches at every offset and the engine never backtracks into
trivia: a ``//`` comment is never re-read as ``/`` tokens.  A match with
no token group is either the end of the text or a lexical error, which
:func:`_raise_error` classifies off the hot path.

Line and column come from counting newlines between token offsets, and
only for a token that starts past the end of the previous token's line;
no other position bookkeeping is done.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple, NoReturn

from repro import obs
from repro.errors import LexError


class TokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    CHAR = "char"
    STRING = "string"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "int",
        "char",
        "void",
        "long",
        "short",
        "unsigned",
        "signed",
        "float",
        "double",
        "bool",
        "size_t",
        "ssize_t",
        "struct",
        "union",
        "enum",
        "typedef",
        "static",
        "const",
        "extern",
        "inline",
        "if",
        "else",
        "while",
        "for",
        "do",
        "return",
        "break",
        "continue",
        "sizeof",
        "goto",
        "switch",
        "case",
        "default",
        "NULL",
    }
)

# Multi-character punctuators, longest first so maximal munch works.
PUNCTUATORS = (
    "<<=",
    ">>=",
    "...",
    "->",
    "++",
    "--",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "=",
    "<",
    ">",
    "!",
    "&",
    "|",
    "^",
    "~",
    "?",
    ":",
    ";",
    ",",
    ".",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
)


class Token(NamedTuple):
    """A single lexed token."""

    kind: TokenKind
    value: str
    line: int
    column: int

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.value == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.value == text

    def __repr__(self) -> str:  # compact, useful in parser errors
        return f"Token({self.kind.value}, {self.value!r}, L{self.line})"


def _literal(quote: str) -> str:
    """An opening quote and the literal's body: any character but the
    quote, a backslash or a newline, or a backslash followed by any
    character (newline included)."""
    body = rf"[^{quote}\\\n]"
    return rf"{quote}{body}*(?:\\[\s\S]{body}*)*"


# A bare "/" must not start an unterminated "/*": that is a comment error.
_PUNCT_PATTERN = "|".join("/(?!\\*)" if p == "/" else re.escape(p) for p in PUNCTUATORS)

_STRING = _literal('"') + '"'
_CHAR = _literal("'") + "'"

_SCANNER = re.compile(
    # trivia: whitespace, line comments, closed block comments
    r"(?:[ \t\r\n]+|//[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)*"
    r"(?:"
    r"([A-Za-z_]\w*)"  # 1: identifier or keyword
    rf"|({_PUNCT_PATTERN})"  # 2: punctuator
    r"|(0[xX][0-9a-fA-F]*[uUlLfF]*|\d+(?:\.\d*)?[uUlLfF]*)"  # 3: number (suffix dropped by the parser)
    rf"|({_STRING})"  # 4: string literal, quotes included
    rf"|({_CHAR})"  # 5: char literal, quotes included
    r"|([^\W\d]\w*)"  # 6: identifier with a non-ASCII first character
    r")?"
).finditer

# Unterminated literals, by opening quote: the kind, and how far the body
# reaches before EOF or a newline.
_LITERAL_BODY = {
    quote: (kind, re.compile(_literal(quote)).match)
    for quote, kind in (('"', TokenKind.STRING), ("'", TokenKind.CHAR))
}

_KIND_OF_GROUP = (None, None, TokenKind.PUNCT, TokenKind.INT, TokenKind.STRING, TokenKind.CHAR)
_new_token = tuple.__new__


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of ``offset``; the column counts characters
    since the last newline, so it is also defined at ``len(text)``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _raise_error(text: str, offset: int, filename: str) -> NoReturn:
    """Raise the :class:`LexError` for the untokenizable text at ``offset``."""
    line, column = _position(text, offset)
    if text.startswith("/*", offset):
        # Reported on the comment's first line, at the end-of-text column.
        raise LexError("unterminated block comment", filename, line, _position(text, len(text))[1])
    char = text[offset]
    if char in _LITERAL_BODY:
        kind, body = _LITERAL_BODY[char]
        end = body(text, offset).end()
        if end < len(text) and text[end] == "\n":
            raise LexError(f"newline in {kind.value} literal", filename, *_position(text, end))
        # The body stops at EOF, or at a backslash that is the last character.
        raise LexError(f"unterminated {kind.value} literal", filename, *_position(text, len(text)))
    raise LexError(f"unexpected character {char!r}", filename, line, column)


@obs.traced("frontend.lex")
def tokenize(text: str, filename: str = "<memory>") -> list[Token]:
    """Tokenize ``text`` and return the token list (EOF-terminated)."""
    tokens: list[Token] = []
    append = tokens.append
    size = len(text)
    line = 1
    line_start = 0  # offset of the first character on ``line``
    line_end = text.find("\n") % (size + 1)  # offset of the newline ending ``line``, or ``size``
    for match in _SCANNER(text):
        group = match.lastindex
        if group is None:
            break
        start, end = match.span(group)
        if start > line_end:
            line += text.count("\n", line_end, start)
            line_start = text.rfind("\n", line_end, start) + 1
            line_end = text.find("\n", start) % (size + 1)
        if group == 1:
            value = text[start:end]
            kind = TokenKind.KEYWORD if value in KEYWORDS else TokenKind.IDENT
        elif group < 4:
            value = text[start:end]
            kind = _KIND_OF_GROUP[group]
        elif group < 6:
            value = text[start + 1 : end - 1]
            kind = _KIND_OF_GROUP[group]
        else:
            if not text[start].isalpha():  # a numeric character such as "²" or "½"
                _raise_error(text, start, filename)
            value = text[start:end]
            kind = TokenKind.IDENT
        append(_new_token(Token, (kind, value, line, start - line_start + 1)))
    offset = match.end()
    if offset < size:
        _raise_error(text, offset, filename)
    append(_new_token(Token, (TokenKind.EOF, "", *_position(text, offset))))
    return tokens
