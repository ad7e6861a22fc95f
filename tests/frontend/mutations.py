"""Hypothesis strategies that mutate, truncate and splice generated C sources.

The seed texts are the ``.c`` files of a small generated corpus, so every
example starts close to real input and the edits push it into the
lexer's and parser's rare paths: comment and literal delimiters,
backslashes, numeric prefixes and suffixes, non-ASCII letters and digits.
"""

from __future__ import annotations

import functools
import re

from hypothesis import strategies as st

from repro.corpus import generate_app

#: Fragments the edits insert; each steers the lexer or parser somewhere rare.
FRAGMENTS = (
    "/", "*", "//", "/*", "*/", '"', "'", "\\", "\\\n", "\n", " ", "\t", "\r",
    "0x", "0", "9", ".", "u", "L", "f", "F", "_", "a", "é", "²", "½", "٣", "$", "@",
    "(", ")", "{", "}", "[", "]", ";", ",", ":", "->", "=", "int ", "struct ",
    "if (", "case ", "goto ", "typedef ", "#if X\n", "#endif\n",
)

#: Replacements for a numeric literal: malformed, hex, float and suffixed forms.
NUMBERS = ("0x", "0xff", "0x1F", "09", "1.5", "1.5f", "10UL", "1..2", "1e5", "²", "1²", "0x²", "½")

#: Replacements for an identifier or keyword.
WORDS = ("NULL", "int", "struct", "sizeof", "void", "case", "default", "else", "__attribute__", "é", "x²")

#: Which words each word-level edit replaces, and with what.
_WORD_EDITS = {"number": (r"\b\d[\w.]*", NUMBERS), "word": (r"\b[A-Za-z_]\w*", WORDS)}


@functools.lru_cache(maxsize=None)
def corpus_sources() -> tuple[str, ...]:
    """The ``.c`` files of a small generated MySQL-profile corpus."""
    snapshot = generate_app("mysql", scale=0.02, seed=7).repo.snapshot_at()
    return tuple(text for path, text in sorted(snapshot.items()) if path.endswith(".c"))


@functools.lru_cache(maxsize=None)
def _top_level_starts(text: str) -> tuple[int, ...]:
    """Offsets of lines that start in column 1: where a declaration may begin."""
    return (0, *(match.end() for match in re.finditer(r"\n(?=\S)", text)))


@st.composite
def _window(draw, max_size: int) -> str:
    """A slice of a corpus file; half the time it starts at a top-level
    line, so the parser gets past the first tokens to the edits."""
    text = draw(st.sampled_from(corpus_sources()))
    if draw(st.booleans()):
        start = draw(st.sampled_from(_top_level_starts(text)))
    else:
        start = draw(st.integers(0, len(text)))
    return text[start : start + draw(st.integers(0, max_size))]


@st.composite
def mutated_sources(draw, max_size: int = 800) -> str:
    """A window of a corpus file, maybe spliced with a second window, then
    edited by inserting, deleting or replacing characters, replacing a
    whole number or word, or truncating."""
    text = draw(_window(max_size))
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(_window(max_size // 2))
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "replace", "number", "word", "truncate")))
        if edit == "truncate":
            text = text[:at]
            continue
        if edit in _WORD_EDITS:
            pattern, replacements = _WORD_EDITS[edit]
            words = [match.span() for match in re.finditer(pattern, text)]
            if words:
                start, end = words[draw(st.integers(0, len(words) - 1))]
                text = text[:start] + draw(st.sampled_from(replacements)) + text[end:]
            continue
        fragment = draw(st.sampled_from(FRAGMENTS))
        if edit == "insert":
            text = text[:at] + fragment + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 4)) :]
        else:
            text = text[:at] + fragment + text[at + 1 :]
    return text
