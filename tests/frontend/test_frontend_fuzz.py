"""Fuzzed frontend input: ``parse_source`` returns or raises a ReproError.

Mutated, truncated and spliced corpus sources run through the whole
frontend (preprocess, lex, parse).  Malformed text must surface as a
typed error — :class:`LexError`, :class:`PreprocessorError` or
:class:`ParseError` — never as a bare ``ValueError`` or ``IndexError``.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.errors import ReproError
from repro.frontend.parser import parse_source

from tests.frontend.mutations import corpus_sources, mutated_sources


def parses_or_raises_typed_error(text):
    try:
        parse_source(text, filename="fuzz.c")
    except ReproError:
        pass


def test_corpus_sources_parse():
    for text in corpus_sources():
        parse_source(text, filename="corpus.c")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_sources())
def test_mutated_sources_raise_only_typed_errors(text):
    parses_or_raises_typed_error(text)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_sources(max_size=4000))
def test_mutated_whole_functions_raise_only_typed_errors(text):
    parses_or_raises_typed_error(text)
