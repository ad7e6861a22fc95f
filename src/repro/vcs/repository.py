"""The MiniGit repository: a linear commit history with git-log queries.

Provides exactly the metadata ValueCheck pulls from git:

* per-file commit logs (who delivered to a file, and when),
* file creation commits (first authorship for the DOK FA factor),
* snapshots at arbitrary revisions (the §3.1 preliminary study runs the
  analysis on the 2019 and 2021 snapshots of each project),
* JSON (de)serialisation so corpora can live on disk next to their
  sources.

Commits hold only their changes; a snapshot is folded from them on
demand.  On disk (format 2) every distinct file text is stored once in a
``blobs`` table keyed by its SHA-256, and commits map each changed path
to a blob id (``null`` for a delete).  Format-1 files, which carry a
full snapshot per commit, still load through :func:`_format1_commits`.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

from repro.errors import VcsError
from repro.vcs.objects import Author, Commit

FORMAT = 2


@dataclass(frozen=True)
class FileStats:
    """The DOK model inputs for (author, file) — paper §6."""

    first_authorship: bool  # FA: author created the file
    deliveries: int  # DL: commits by this author touching the file
    acceptances: int  # AC: commits touching the file by other authors


def _blob_id(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(body: dict) -> str:
    """Integrity digest over a format-2 document's name and commit table
    (blobs are checked against their own ids)."""
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _commit(entry: dict, changes: dict[str, str | None]) -> Commit:
    commit = Commit(
        commit_id=entry["commit_id"],
        author=Author.from_dict(entry["author"]),
        day=entry["day"],
        message=entry["message"],
        changes=changes,
        parent_id=entry.get("parent_id"),
    )
    strings = (commit.commit_id, commit.message, commit.author.name, commit.author.email)
    texts = (text for text in changes.values() if text is not None)
    if (
        not all(isinstance(value, str) for value in (*strings, *texts))
        or type(commit.day) is not int
    ):
        raise VcsError(f"malformed commit entry {entry.get('commit_id')!r}")
    return commit


def _format2_commits(data: dict) -> list[Commit]:
    blobs = data["blobs"]
    for blob_id, text in blobs.items():
        if not isinstance(text, str) or _blob_id(text) != blob_id:
            raise VcsError(f"blob {blob_id} does not match its content")
    if _digest({"name": data["name"], "commits": data["commits"]}) != data["digest"]:
        raise VcsError("commit table does not match its digest")
    commits = []
    for entry in data["commits"]:
        changes: dict[str, str | None] = {}
        for path, blob_id in sorted(entry["changes"].items()):
            if blob_id is not None and blob_id not in blobs:
                raise VcsError(f"commit {entry['commit_id']} references missing blob {blob_id}")
            changes[path] = None if blob_id is None else blobs[blob_id]
        commits.append(_commit(entry, changes))
    return commits


def _format1_commits(entries: list[dict]) -> list[Commit]:
    """The one converter from format 1: each commit's changes are the
    paths whose text differs from the previous commit's snapshot."""
    commits = []
    previous: dict[str, str] = {}
    for entry in entries:
        snapshot = entry["snapshot"]
        changes = {
            path: snapshot.get(path)
            for path in sorted(previous.keys() | snapshot.keys())
            if snapshot.get(path) != previous.get(path)
        }
        commits.append(_commit(entry, changes))
        previous = snapshot
    return commits


class Repository:
    """An append-only, linear commit history."""

    def __init__(self, name: str = "repo"):
        self.name = name
        self.commits: list[Commit] = []
        # Lazily built indexes, kept up to date by commit():
        # path → indices of the commits that changed it,
        # commit id → index, and author name → Author.
        self._log_cache: dict[str, list[int]] | None = None
        self._id_cache: dict[str, int] | None = None
        self._author_cache: dict[str, Author] | None = None

    # -- writing ---------------------------------------------------------

    def commit(
        self,
        author: Author,
        message: str,
        changes: dict[str, str | None],
        day: int,
    ) -> Commit:
        """Apply ``changes`` (path → new content, or None to delete) on top
        of HEAD and append the resulting commit."""
        if self.commits and day < self.commits[-1].day:
            raise VcsError(
                f"non-monotonic commit day {day} (HEAD is at {self.commits[-1].day})"
            )
        head = len(self.commits) - 1
        applied = {
            path: content
            for path, content in sorted(changes.items())
            if content != self.text_at(path, head)
        }
        parent_id = self.commits[-1].commit_id if self.commits else None
        digest = hashlib.sha1(
            f"{parent_id}|{author.name}|{day}|{message}|{list(applied)}".encode()
        ).hexdigest()[:12]
        commit = Commit(
            commit_id=digest,
            author=author,
            day=day,
            message=message,
            changes=applied,
            parent_id=parent_id,
        )
        index = len(self.commits)
        self.commits.append(commit)
        if self._log_cache is not None:
            for path in applied:
                self._log_cache.setdefault(path, []).append(index)
        if self._id_cache is not None:
            self._id_cache.setdefault(digest, index)
        if self._author_cache is not None:
            self._author_cache.setdefault(author.name, author)
        return commit

    # -- reading -----------------------------------------------------------

    @property
    def head(self) -> Commit:
        if not self.commits:
            raise VcsError("empty repository")
        return self.commits[-1]

    def commit_by_id(self, commit_id: str) -> Commit:
        return self.commits[self.rev_index(commit_id)]

    def rev_index(self, rev: int | str | None) -> int:
        """Normalise a revision (index, negative index, commit id, or None
        for HEAD) to a commit index."""
        if rev is None:
            rev = -1
        if isinstance(rev, str):
            if self._id_cache is None:
                cache: dict[str, int] = {}
                for index, commit in enumerate(self.commits):
                    cache.setdefault(commit.commit_id, index)
                self._id_cache = cache
            if rev not in self._id_cache:
                raise VcsError(f"unknown commit {rev}")
            return self._id_cache[rev]
        if type(rev) is not int:
            raise VcsError(f"revision must be an index or a commit id; got {rev!r}")
        if rev < 0:
            rev += len(self.commits)
        if not 0 <= rev < len(self.commits):
            raise VcsError(f"revision {rev} out of range")
        return rev

    def text_at(self, path: str, index: int) -> str | None:
        """Text of ``path`` after commit ``index`` (None if absent)."""
        indices = self._file_log_indices(path)
        position = bisect_right(indices, index)
        if position == 0:
            return None
        return self.commits[indices[position - 1]].changes[path]

    def _tree(self, index: int) -> dict[str, str]:
        """The snapshot after commit ``index``: its changes folded in order."""
        tree: dict[str, str] = {}
        for commit in self.commits[: index + 1]:
            for path, text in commit.changes.items():
                if text is None:
                    tree.pop(path, None)
                else:
                    tree[path] = text
        return tree

    def snapshot_at(self, rev: int | str | None = None) -> dict[str, str]:
        return self._tree(self.rev_index(rev))

    def file_at(self, path: str, rev: int | str | None = None) -> str:
        text = self.text_at(path, self.rev_index(rev))
        if text is None:
            raise VcsError(f"{path} not present at revision {rev}")
        return text

    def files(self, rev: int | str | None = None) -> list[str]:
        return sorted(self._tree(self.rev_index(rev)))

    def rev_at_day(self, day: int) -> int:
        """Index of the last commit on or before ``day``."""
        chosen = -1
        for index, commit in enumerate(self.commits):
            if commit.day <= day:
                chosen = index
            else:
                break
        if chosen < 0:
            raise VcsError(f"no commits on or before day {day}")
        return chosen

    def snapshot_at_day(self, day: int) -> dict[str, str]:
        """The last snapshot with commit day ≤ ``day`` (for the 2019/2021
        snapshot differential of §3.1)."""
        return self._tree(self.rev_at_day(day))

    # -- logs and stats --------------------------------------------------

    def _file_log_indices(self, path: str) -> list[int]:
        if self._log_cache is None:
            cache: dict[str, list[int]] = {}
            for index, commit in enumerate(self.commits):
                for touched in commit.changes:
                    cache.setdefault(touched, []).append(index)
            self._log_cache = cache
        return self._log_cache.get(path, [])

    def file_log(self, path: str, until_rev: int | str | None = None) -> list[Commit]:
        """Commits that changed ``path``, oldest first."""
        indices = self._file_log_indices(path)
        if until_rev is not None:
            indices = indices[: bisect_right(indices, self.rev_index(until_rev))]
        return [self.commits[i] for i in indices]

    def file_stats(self, path: str, author: Author, until_rev: int | str | None = None) -> FileStats:
        """FA/DL/AC for (author, file) — the DOK model inputs."""
        log = self.file_log(path, until_rev)
        if not log:
            return FileStats(first_authorship=False, deliveries=0, acceptances=0)
        deliveries = sum(1 for commit in log if commit.author == author)
        acceptances = len(log) - deliveries
        return FileStats(
            first_authorship=log[0].author == author,
            deliveries=deliveries,
            acceptances=acceptances,
        )

    def authors(self) -> list[Author]:
        by_name = self._authors_by_name()
        return [by_name[name] for name in sorted(by_name)]

    def author(self, name: str) -> Author | None:
        """The author of that name, as recorded by their first commit."""
        return self._authors_by_name().get(name)

    def _authors_by_name(self) -> dict[str, Author]:
        if self._author_cache is None:
            cache: dict[str, Author] = {}
            for commit in self.commits:
                cache.setdefault(commit.author.name, commit.author)
            self._author_cache = cache
        return self._author_cache

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        """The format-2 document: each distinct text once in ``blobs``."""
        blobs: dict[str, str] = {}
        commits = []
        for commit in self.commits:
            changes: dict[str, str | None] = {}
            for path, text in commit.changes.items():
                if text is None:
                    changes[path] = None
                else:
                    changes[path] = blob_id = _blob_id(text)
                    blobs[blob_id] = text
            commits.append(
                {
                    "commit_id": commit.commit_id,
                    "author": commit.author.to_dict(),
                    "day": commit.day,
                    "message": commit.message,
                    "changes": changes,
                    "parent_id": commit.parent_id,
                }
            )
        body = {"name": self.name, "commits": commits}
        return {"format": FORMAT, **body, "digest": _digest(body), "blobs": blobs}

    @classmethod
    def from_dict(cls, data: dict) -> "Repository":
        """Read a format-2 document, or convert a format-1 one.  Anything
        malformed raises :class:`VcsError`."""
        try:
            version = data.get("format", 1)
            if version == FORMAT:
                commits = _format2_commits(data)
            elif version == 1:
                commits = _format1_commits(data["commits"])
            else:
                raise VcsError(f"unknown repository format {version!r}")
            repo = cls(name=data.get("name", "repo"))
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise VcsError(f"malformed repository data: {error!r}") from error
        repo.commits = commits
        return repo

    def save(self, path: str | Path) -> None:
        """Write atomically: a temporary file in the same directory is
        renamed over ``path``, so an interrupted save leaves the old file."""
        text = json.dumps(self.to_dict())
        target = Path(path)
        temporary = target.with_name(f".{target.name}.{secrets.token_hex(4)}.tmp")
        handle = open(temporary, "x", encoding="utf-8")
        try:
            with handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temporary, target)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "Repository":
        # Unreadable, bad JSON or UTF-8, deep nesting: all are VcsError.
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as error:
            raise VcsError(f"{path} is not a repository file: {error}") from error
        return cls.from_dict(data)

    def checkout_to(self, directory: str | Path, rev: int | str | None = None) -> None:
        """Materialise a snapshot onto disk (used by examples/CLI)."""
        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        for path, content in self.snapshot_at(rev).items():
            target = base / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(content)
