"""Line-level blame, computed by carrying attributions across diffs.

The first version of a file attributes every line to its creating commit;
each subsequent commit's diff preserves attributions over 'equal' regions
and assigns inserted/replaced lines to that commit.  This is how git blame
behaves for linear histories.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import VcsError
from repro.vcs.diff import myers_diff
from repro.vcs.objects import Author
from repro.vcs.repository import Repository


@dataclass(frozen=True)
class LineBlame:
    """Attribution of one line (1-based ``line``)."""

    line: int
    author: Author
    commit_id: str
    day: int


class BlameIndex:
    """Blame for every file of a repository at a given revision, with a
    cache — authorship lookup hits the same files repeatedly."""

    def __init__(self, repo: Repository, rev: int | str | None = None):
        self.repo = repo
        self.rev = repo.rev_index(rev)
        self._cache: dict[str, list[LineBlame]] = {}

    def file_blame(self, path: str) -> list[LineBlame]:
        if path not in self._cache:
            self._cache[path] = blame(self.repo, path, self.rev)
        return self._cache[path]

    def line_info(self, path: str, line: int) -> LineBlame | None:
        entries = self.file_blame(path)
        if 1 <= line <= len(entries):
            return entries[line - 1]
        return None


@obs.traced("vcs.blame")
def blame(repo: Repository, path: str, rev: int | str | None = None) -> list[LineBlame]:
    """Blame ``path`` at ``rev`` (default HEAD)."""
    log = repo.file_log(path, rev)
    if not log:
        raise VcsError(f"{path} has no history at revision {rev}")

    # Convention: same as str.split("\n") — an empty file still has one
    # (empty) line; only a *deleted* file (None) has zero.  The first
    # version diffs against no lines, so its commit gets every line.
    current_lines: list[str] = []
    attributions: list[tuple[Author, str, int]] = []
    for commit in log:
        text = commit.changes[path]
        new_lines = text.split("\n") if text is not None else []
        new_attr: list[tuple[Author, str, int]] = []
        for op in myers_diff(current_lines, new_lines):
            if op.tag == "equal":
                new_attr.extend(attributions[op.i1 : op.i2])
            elif op.tag in ("insert", "replace"):
                new_attr.extend(
                    (commit.author, commit.commit_id, commit.day) for _ in range(op.j2 - op.j1)
                )
            # 'delete': nothing carried over
        current_lines = new_lines
        attributions = new_attr

    return [
        LineBlame(line=index + 1, author=author, commit_id=commit_id, day=day)
        for index, (author, commit_id, day) in enumerate(attributions)
    ]
