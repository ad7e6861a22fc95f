"""Exception hierarchy for the ValueCheck reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Frontend errors
carry source locations; analysis errors carry the function or file being
analysed when that context is available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SourceError(ReproError):
    """An error tied to a location in a source file."""

    def __init__(self, message: str, filename: str = "<unknown>", line: int = 0, column: int = 0):
        self.message = message
        self.filename = filename
        self.line = line
        self.column = column
        super().__init__(f"{filename}:{line}:{column}: {message}")

    def __reduce__(self):
        # Rebuild from the constructor's arguments: the default would
        # pass the formatted message back in as ``message``.  Process-pool
        # workers raise these across a pickle boundary.
        return type(self), (self.message, self.filename, self.line, self.column)


class LexError(SourceError):
    """The lexer encountered a character sequence it cannot tokenize."""


class ParseError(SourceError):
    """The parser encountered an unexpected token."""


class PreprocessorError(SourceError):
    """Malformed or unbalanced preprocessor directives."""


class LoweringError(SourceError):
    """AST-to-IR lowering hit a construct it cannot translate."""


class AnalysisError(ReproError):
    """A static analysis failed on well-formed input."""


class AnalysisUnsupported(AnalysisError):
    """A tool (typically a baseline) cannot analyse the given project.

    The paper's baselines fail on some applications (e.g. Smatch reports
    compilation errors on everything except Linux, fb-infer errors on
    Linux); baselines raise this to reproduce the ``-*`` table cells.
    """


class VcsError(ReproError):
    """Errors from the MiniGit version-control substrate."""


class StoreError(ReproError, ValueError):
    """A findings store or baseline file that cannot be read.  It is a
    ValueError too, as a bad value read from disk is."""


class CorpusError(ReproError):
    """Errors from the synthetic corpus generator."""

