"""The hand-written character-at-a-time MiniC lexer, kept as a test oracle.

This is the scanner :mod:`repro.frontend.lexer` used before its single
regex replaced it.  It walks the text one character at a time through
``_peek``/``_advance``, which also keep the line and column.  The
differential tests in ``test_lexer_oracle.py`` assert that the regex
lexer produces the same tokens and the same :class:`LexError` message,
line and column on every input, with one documented exception: a
character such as ``²`` that is a digit but not a decimal digit.
"""

from __future__ import annotations

from repro.errors import LexError
from repro.frontend.lexer import KEYWORDS, PUNCTUATORS, Token, TokenKind


class Lexer:
    """Tokenizes MiniC text; see :func:`reference_tokenize` for the usual entry point."""

    def __init__(self, text: str, filename: str = "<memory>"):
        self.text = text
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- character helpers -------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos >= len(self.text):
                return
            if self.text[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _error(self, message: str) -> LexError:
        return LexError(message, self.filename, self.line, self.column)

    # -- skipping ----------------------------------------------------------

    def _skip_trivia(self) -> None:
        """Skip whitespace and comments (both ``//`` and ``/* */``)."""
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line = self.line
                self._advance(2)
                while self.pos < len(self.text):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    self.line = start_line
                    raise self._error("unterminated block comment")
            else:
                return

    # -- token scanners ----------------------------------------------------

    def _scan_identifier(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.text[start : self.pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, line, column)

    def _scan_number(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
            if self._peek() == ".":  # float literal; normalised to INT kind
                self._advance()
                while self._peek().isdigit():
                    self._advance()
        # Integer suffixes are accepted and dropped.
        while self._peek() and self._peek() in "uUlLfF":
            self._advance()
        return Token(TokenKind.INT, self.text[start : self.pos], line, column)

    def _scan_quoted(self, quote: str, kind: TokenKind) -> Token:
        line, column = self.line, self.column
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            ch = self._peek()
            if ch == "":
                raise self._error(f"unterminated {kind.value} literal")
            if ch == "\\":
                chars.append(ch)
                self._advance()
                chars.append(self._peek())
                self._advance()
                continue
            if ch == quote:
                self._advance()
                break
            if ch == "\n":
                raise self._error(f"newline in {kind.value} literal")
            chars.append(ch)
            self._advance()
        return Token(kind, "".join(chars), line, column)

    def _scan_punct(self) -> Token:
        line, column = self.line, self.column
        for punct in PUNCTUATORS:
            if self.text.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token(TokenKind.PUNCT, punct, line, column)
        raise self._error(f"unexpected character {self._peek()!r}")

    # -- driver ------------------------------------------------------------

    def next_token(self) -> Token:
        self._skip_trivia()
        if self.pos >= len(self.text):
            return Token(TokenKind.EOF, "", self.line, self.column)
        ch = self._peek()
        if ch.isalpha() or ch == "_":
            return self._scan_identifier()
        if ch.isdigit():
            return self._scan_number()
        if ch == '"':
            return self._scan_quoted('"', TokenKind.STRING)
        if ch == "'":
            return self._scan_quoted("'", TokenKind.CHAR)
        return self._scan_punct()

    def all_tokens(self) -> list[Token]:
        tokens: list[Token] = []
        while True:
            token = self.next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens


def reference_tokenize(text: str, filename: str = "<memory>") -> list[Token]:
    """Tokenize ``text`` with the reference lexer (EOF-terminated)."""
    return Lexer(text, filename).all_tokens()
