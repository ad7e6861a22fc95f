"""Authors, commits, and date helpers for MiniGit.

Timestamps are integer *day numbers* (days since 2000-01-01).  Day
arithmetic is all the evaluation needs (Figure 7c buckets bugs by "days
before detected"); :func:`day_to_iso`/:func:`iso_to_day` convert to
calendar dates for reports.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

_EPOCH = datetime.date(2000, 1, 1)


def day_to_iso(day: int) -> str:
    """Day number → 'YYYY-MM-DD'."""
    return (_EPOCH + datetime.timedelta(days=day)).isoformat()


def iso_to_day(date_string: str) -> int:
    """'YYYY-MM-DD' → day number."""
    return (datetime.date.fromisoformat(date_string) - _EPOCH).days


@dataclass(frozen=True)
class Author:
    """A committer identity."""

    name: str
    email: str = ""

    def __str__(self) -> str:
        return self.name

    def to_dict(self) -> dict:
        return {"name": self.name, "email": self.email}

    @classmethod
    def from_dict(cls, data: dict) -> "Author":
        return cls(name=data["name"], email=data.get("email", ""))


@dataclass
class Commit:
    """One commit: author, day, message and its *changes* relative to the
    parent commit (path → new text, or None for a delete).
    :class:`~repro.vcs.repository.Repository` folds changes into
    snapshots."""

    commit_id: str
    author: Author
    day: int
    message: str
    changes: dict[str, str | None] = field(default_factory=dict)
    parent_id: str | None = None

    @property
    def touched(self) -> tuple[str, ...]:
        """Paths this commit changed, sorted."""
        return tuple(sorted(self.changes))

    @property
    def date(self) -> str:
        return day_to_iso(self.day)

    def is_bugfix(self) -> bool:
        """Heuristic the §3.1 preliminary study uses on commit messages."""
        lowered = self.message.lower()
        return any(marker in lowered for marker in ("fix", "bug", "cve", "fault", "corrupt"))
