"""Mini-C frontend: lexer, preprocessor, AST and parser.

The paper's implementation consumes LLVM bitcode produced by clang at
``-O0 -fno-inline``.  This package provides the equivalent source-level
substrate: a small C dialect ("MiniC") covering the constructs that matter
for unused-definition analysis — assignments, calls, control flow, structs
and field accesses, pointers and address-of, preprocessor conditionals, and
unused-hint attributes.

Typical usage::

    from repro.frontend import parse_source
    unit = parse_source(text, filename="bitmap.c", config={"USE_ICMP"})
"""

from repro.frontend.lexer import Token, TokenKind, tokenize
from repro.frontend.preprocessor import CondRegion, PreprocessedSource, preprocess
from repro.frontend.parser import Parser, parse_source
from repro.frontend import ast_nodes as ast

__all__ = [
    "Token",
    "TokenKind",
    "tokenize",
    "CondRegion",
    "PreprocessedSource",
    "preprocess",
    "Parser",
    "parse_source",
    "ast",
]
