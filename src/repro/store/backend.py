"""Persistence backends for the findings store.

Two interchangeable backends behind one small row-oriented interface:

* :class:`MemoryBackend` — dict-based, for tests and per-session warm
  state inside the analysis service;
* :class:`SqliteBackend` — one SQLite file (WAL mode), for the CLI's
  ``snapshot``/``gate``/``triage`` workflow where store state must
  survive between CI runs.

Both are **concurrent-reader safe**: the SQLite backend opens one
connection per thread (WAL lets readers proceed while a writer
commits) and serialises writes behind a lock; the memory backend takes
the same lock around every operation.  The store's lifecycle logic
(``repro.store.store``) is backend-agnostic — backends only move rows.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

from repro.errors import StoreError

#: Bump when the row layout changes; SQLite files created by a newer
#: schema refuse to open under older code instead of mis-reading rows.
STORE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class StoredFinding:
    """One tracked finding: identity, last-known location, lifecycle."""

    fingerprint: str  # primary — the row key
    location: str  # secondary, for fuzzy re-matching
    file: str
    function: str
    var: str
    kind: str
    line: int  # last-seen line (display only, never identity)
    status: str = "active"  # 'active' | 'fixed'
    first_seen: str = ""  # rev label of the snapshot that introduced it
    last_seen: str = ""  # rev label it was last present in
    fixed_rev: str | None = None  # rev label of the snapshot that fixed it
    analysis_version: str = ""  # engine version that produced it

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "location": self.location,
            "file": self.file,
            "function": self.function,
            "var": self.var,
            "kind": self.kind,
            "line": self.line,
            "status": self.status,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "fixed_rev": self.fixed_rev,
            "analysis_version": self.analysis_version,
        }


@dataclass(frozen=True)
class SnapshotMeta:
    """One recorded analysis snapshot."""

    rev: str
    seq: int  # monotonically increasing snapshot number
    findings: int  # active findings at this snapshot
    analysis_version: str = ""

    def as_dict(self) -> dict:
        return {
            "rev": self.rev,
            "seq": self.seq,
            "findings": self.findings,
            "analysis_version": self.analysis_version,
        }


class MemoryBackend:
    """In-process store state; the reference backend semantics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, StoredFinding] = {}
        self._snapshots: list[SnapshotMeta] = []
        self._members: dict[str, tuple[str, ...]] = {}  # rev → fingerprints

    # -- entries ---------------------------------------------------------

    def entries(self) -> dict[str, StoredFinding]:
        with self._lock:
            return dict(self._entries)

    def upsert_entries(self, rows: Iterable[StoredFinding]) -> None:
        with self._lock:
            for row in rows:
                self._entries[row.fingerprint] = row

    def replace_fingerprint(self, old: str, row: StoredFinding) -> None:
        """Re-key an entry after a fuzzy re-match updated its primary."""
        with self._lock:
            self._entries.pop(old, None)
            self._entries[row.fingerprint] = row

    # -- snapshots -------------------------------------------------------

    def snapshots(self) -> list[SnapshotMeta]:
        with self._lock:
            return list(self._snapshots)

    def latest(self) -> SnapshotMeta | None:
        with self._lock:
            return self._snapshots[-1] if self._snapshots else None

    def add_snapshot(self, meta: SnapshotMeta, members: Iterable[str]) -> None:
        with self._lock:
            self._snapshots = [s for s in self._snapshots if s.rev != meta.rev]
            self._snapshots.append(meta)
            self._members[meta.rev] = tuple(members)

    def snapshot_members(self, rev: str) -> tuple[str, ...] | None:
        with self._lock:
            return self._members.get(rev)

    def close(self) -> None:  # symmetry with SqliteBackend
        pass


class SqliteBackend:
    """SQLite-file store state (WAL journal, per-thread connections)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._write_lock = threading.Lock()
        self._local = threading.local()
        self._init_schema()

    def _connect(self) -> sqlite3.Connection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = sqlite3.connect(self.path)
            connection.row_factory = sqlite3.Row
            connection.execute("PRAGMA journal_mode=WAL")
            self._local.connection = connection
        return connection

    def _init_schema(self) -> None:
        with self._write_lock:
            connection = self._connect()
            connection.executescript(
                """
                CREATE TABLE IF NOT EXISTS meta (
                    key TEXT PRIMARY KEY, value TEXT NOT NULL);
                CREATE TABLE IF NOT EXISTS findings (
                    fingerprint TEXT PRIMARY KEY,
                    location TEXT NOT NULL,
                    file TEXT NOT NULL, function TEXT NOT NULL,
                    var TEXT NOT NULL, kind TEXT NOT NULL,
                    line INTEGER NOT NULL,
                    status TEXT NOT NULL,
                    first_seen TEXT NOT NULL, last_seen TEXT NOT NULL,
                    fixed_rev TEXT, analysis_version TEXT NOT NULL);
                CREATE INDEX IF NOT EXISTS findings_location
                    ON findings (location);
                CREATE TABLE IF NOT EXISTS snapshots (
                    rev TEXT PRIMARY KEY, seq INTEGER NOT NULL,
                    findings INTEGER NOT NULL,
                    analysis_version TEXT NOT NULL);
                CREATE TABLE IF NOT EXISTS snapshot_members (
                    rev TEXT NOT NULL, fingerprint TEXT NOT NULL,
                    PRIMARY KEY (rev, fingerprint));
                """
            )
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'schema'"
            ).fetchone()
            if row is None:
                connection.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema', ?)",
                    (json.dumps(STORE_SCHEMA_VERSION),),
                )
            elif json.loads(row["value"]) > STORE_SCHEMA_VERSION:
                raise StoreError(
                    f"store {self.path} was written by a newer schema "
                    f"({row['value']} > {STORE_SCHEMA_VERSION})"
                )
            connection.commit()

    # -- entries ---------------------------------------------------------

    @staticmethod
    def _row_to_finding(row: sqlite3.Row) -> StoredFinding:
        return StoredFinding(
            fingerprint=row["fingerprint"],
            location=row["location"],
            file=row["file"],
            function=row["function"],
            var=row["var"],
            kind=row["kind"],
            line=row["line"],
            status=row["status"],
            first_seen=row["first_seen"],
            last_seen=row["last_seen"],
            fixed_rev=row["fixed_rev"],
            analysis_version=row["analysis_version"],
        )

    def entries(self) -> dict[str, StoredFinding]:
        rows = self._connect().execute("SELECT * FROM findings").fetchall()
        return {row["fingerprint"]: self._row_to_finding(row) for row in rows}

    def upsert_entries(self, rows: Iterable[StoredFinding]) -> None:
        with self._write_lock:
            connection = self._connect()
            connection.executemany(
                """
                INSERT INTO findings (fingerprint, location, file, function,
                    var, kind, line, status, first_seen, last_seen, fixed_rev,
                    analysis_version)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (fingerprint) DO UPDATE SET
                    location=excluded.location, file=excluded.file,
                    function=excluded.function, var=excluded.var,
                    kind=excluded.kind, line=excluded.line,
                    status=excluded.status, first_seen=excluded.first_seen,
                    last_seen=excluded.last_seen, fixed_rev=excluded.fixed_rev,
                    analysis_version=excluded.analysis_version
                """,
                [
                    (
                        row.fingerprint, row.location, row.file, row.function,
                        row.var, row.kind, row.line, row.status,
                        row.first_seen, row.last_seen, row.fixed_rev,
                        row.analysis_version,
                    )
                    for row in rows
                ],
            )
            connection.commit()

    def replace_fingerprint(self, old: str, row: StoredFinding) -> None:
        # Delete + re-insert in ONE transaction: a concurrent reader must
        # never observe the entry missing mid-rekey.
        with self._write_lock:
            connection = self._connect()
            connection.execute("DELETE FROM findings WHERE fingerprint = ?", (old,))
            connection.execute(
                """
                INSERT INTO findings (fingerprint, location, file, function,
                    var, kind, line, status, first_seen, last_seen, fixed_rev,
                    analysis_version)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (fingerprint) DO UPDATE SET
                    location=excluded.location, file=excluded.file,
                    function=excluded.function, var=excluded.var,
                    kind=excluded.kind, line=excluded.line,
                    status=excluded.status, first_seen=excluded.first_seen,
                    last_seen=excluded.last_seen, fixed_rev=excluded.fixed_rev,
                    analysis_version=excluded.analysis_version
                """,
                (
                    row.fingerprint, row.location, row.file, row.function,
                    row.var, row.kind, row.line, row.status,
                    row.first_seen, row.last_seen, row.fixed_rev,
                    row.analysis_version,
                ),
            )
            connection.commit()

    # -- snapshots -------------------------------------------------------

    def snapshots(self) -> list[SnapshotMeta]:
        rows = self._connect().execute(
            "SELECT * FROM snapshots ORDER BY seq"
        ).fetchall()
        return [
            SnapshotMeta(
                rev=row["rev"], seq=row["seq"], findings=row["findings"],
                analysis_version=row["analysis_version"],
            )
            for row in rows
        ]

    def latest(self) -> SnapshotMeta | None:
        snapshots = self.snapshots()
        return snapshots[-1] if snapshots else None

    def add_snapshot(self, meta: SnapshotMeta, members: Iterable[str]) -> None:
        with self._write_lock:
            connection = self._connect()
            connection.execute("DELETE FROM snapshots WHERE rev = ?", (meta.rev,))
            connection.execute(
                "DELETE FROM snapshot_members WHERE rev = ?", (meta.rev,)
            )
            connection.execute(
                "INSERT INTO snapshots (rev, seq, findings, analysis_version) "
                "VALUES (?, ?, ?, ?)",
                (meta.rev, meta.seq, meta.findings, meta.analysis_version),
            )
            connection.executemany(
                "INSERT INTO snapshot_members (rev, fingerprint) VALUES (?, ?)",
                [(meta.rev, fingerprint) for fingerprint in members],
            )
            connection.commit()

    def snapshot_members(self, rev: str) -> tuple[str, ...] | None:
        connection = self._connect()
        if connection.execute(
            "SELECT 1 FROM snapshots WHERE rev = ?", (rev,)
        ).fetchone() is None:
            return None
        rows = connection.execute(
            "SELECT fingerprint FROM snapshot_members WHERE rev = ? "
            "ORDER BY fingerprint",
            (rev,),
        ).fetchall()
        return tuple(row["fingerprint"] for row in rows)

    def close(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None


def mark_fixed(row: StoredFinding, rev: str) -> StoredFinding:
    return replace(row, status="fixed", fixed_rev=rev)


def mark_active(row: StoredFinding, rev: str, line: int | None = None) -> StoredFinding:
    return replace(
        row,
        status="active",
        last_seen=rev,
        fixed_rev=None,
        line=row.line if line is None else line,
    )
