"""Source-file model shared by the frontend and the analyses.

Analyses in this package report findings as ``(file, line)`` pairs that are
later joined against version-control blame data, so keeping a small,
explicit model of source text and locations in one place avoids ad-hoc
string handling elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    """A half-open line range ``[start, end]`` (1-based, inclusive)."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 1 or self.end < self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end}]")

    def contains(self, line: int) -> bool:
        return self.start <= line <= self.end

    def overlaps(self, other: "Span") -> bool:
        return self.start <= other.end and other.start <= self.end

    def __len__(self) -> int:
        return self.end - self.start + 1


@dataclass
class SourceFile:
    """A named source file plus its raw text, split into lines once."""

    name: str
    text: str
    lines: list[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.lines = self.text.split("\n")

    def line(self, number: int) -> str:
        """Return the 1-based line ``number`` ('' if out of range)."""
        if 1 <= number <= len(self.lines):
            return self.lines[number - 1]
        return ""

    def slice(self, span: Span) -> list[str]:
        """Return the lines covered by ``span`` (clipped to the file)."""
        return self.lines[span.start - 1 : min(span.end, len(self.lines))]
