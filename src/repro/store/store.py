"""The persistent findings store: snapshots, lifecycle, revision diffs.

:class:`FindingsStore` tracks every reported finding across analysis
snapshots by its stable fingerprint (see :mod:`repro.store.fingerprint`)
and classifies each one relative to a baseline snapshot:

====================  =================================================
``new``               fingerprint never seen before
``persistent``        present in the baseline (exact primary match, or
                      a fuzzy location re-match after a refactor)
``fixed``             in the baseline, absent now
``reopened``          previously transitioned to fixed, present again
====================  =================================================

The states map onto SARIF 2.1.0 ``baselineState`` (``new`` /
``unchanged`` / ``updated`` / ``absent``) so CI viewers get the
lifecycle for free; the ``gate`` contract — exit non-zero only on new,
unsuppressed findings — is built on the same diff
(:mod:`repro.store.gate`).

Observability: snapshot and diff operations run under a ``store`` span
and record ``store.fingerprints``, ``store.hits`` / ``store.misses``
(baseline matches vs novel fingerprints) and
``store.lifecycle{state=...}`` transition counters into the ambient
telemetry (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import enum
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from repro import obs
from repro.errors import StoreError
from repro.store.backend import (
    MemoryBackend,
    SnapshotMeta,
    SqliteBackend,
    StoredFinding,
    mark_active,
    mark_fixed,
)
from repro.store.fingerprint import Fingerprint, fingerprint_findings

if TYPE_CHECKING:
    from repro.core.findings import Finding


def _analysis_version() -> str:
    # Imported lazily: repro.engine pulls in repro.core, which imports
    # the store for report diffs — a module-level import would cycle.
    from repro.engine.cache import ANALYSIS_VERSION

    return ANALYSIS_VERSION


class Lifecycle(enum.Enum):
    """A finding's state relative to the baseline snapshot."""

    NEW = "new"
    PERSISTENT = "persistent"
    FIXED = "fixed"
    REOPENED = "reopened"


#: Lifecycle → SARIF 2.1.0 ``baselineState``.  A fuzzy re-match
#: (refactored statement, same location identity) maps to ``updated``.
SARIF_BASELINE_STATES = {
    Lifecycle.NEW: "new",
    Lifecycle.PERSISTENT: "unchanged",
    Lifecycle.FIXED: "absent",
    Lifecycle.REOPENED: "new",
}


@dataclass(frozen=True)
class LifecycleRow:
    """One finding's verdict in a revision diff."""

    state: Lifecycle
    fingerprint: str  # primary fingerprint (current for live rows)
    finding: "Finding | None" = None  # None for fixed rows — it is gone
    stored: StoredFinding | None = None  # None for brand-new rows
    rematched: bool = False  # matched via the location fingerprint

    @property
    def file(self) -> str:
        if self.finding is not None:
            return self.finding.candidate.file
        return self.stored.file if self.stored is not None else ""

    @property
    def function(self) -> str:
        if self.finding is not None:
            return self.finding.candidate.function
        return self.stored.function if self.stored is not None else ""

    @property
    def var(self) -> str:
        if self.finding is not None:
            return self.finding.candidate.var
        return self.stored.var if self.stored is not None else ""

    @property
    def kind(self) -> str:
        if self.finding is not None:
            return self.finding.candidate.kind.value
        return self.stored.kind if self.stored is not None else ""

    @property
    def line(self) -> int:
        if self.finding is not None:
            return self.finding.candidate.line
        return self.stored.line if self.stored is not None else 0

    def baseline_state(self) -> str:
        if self.rematched:
            return "updated"
        return SARIF_BASELINE_STATES[self.state]

    def as_dict(self) -> dict:
        return {
            "state": self.state.value,
            "baseline_state": self.baseline_state(),
            "fingerprint": self.fingerprint,
            "file": self.file,
            "function": self.function,
            "var": self.var,
            "kind": self.kind,
            "line": self.line,
            "rematched": self.rematched,
        }


@dataclass
class LifecycleDiff:
    """Everything one snapshot/diff operation decided."""

    rev: str
    baseline_rev: str | None
    rows: list[LifecycleRow] = field(default_factory=list)
    #: finding.key → Fingerprint for every live (non-fixed) row.
    fingerprints: dict[str, Fingerprint] = field(default_factory=dict)
    #: True when the baseline snapshot was produced by a different
    #: ``ANALYSIS_VERSION`` — states are still computed, but drift may be
    #: the analyzer's, not the code's.
    analysis_version_changed: bool = False

    def by_state(self, state: Lifecycle) -> list[LifecycleRow]:
        return [row for row in self.rows if row.state is state]

    def new(self) -> list[LifecycleRow]:
        return self.by_state(Lifecycle.NEW)

    def persistent(self) -> list[LifecycleRow]:
        return self.by_state(Lifecycle.PERSISTENT)

    def fixed(self) -> list[LifecycleRow]:
        return self.by_state(Lifecycle.FIXED)

    def reopened(self) -> list[LifecycleRow]:
        return self.by_state(Lifecycle.REOPENED)

    def counts(self) -> dict[str, int]:
        return {state.value: len(self.by_state(state)) for state in Lifecycle}

    def baseline_states(self) -> dict[str, str]:
        """finding.key → SARIF ``baselineState`` for live rows."""
        return {
            row.finding.key: row.baseline_state()
            for row in self.rows
            if row.finding is not None
        }

    def as_dict(self) -> dict:
        return {
            "rev": self.rev,
            "baseline_rev": self.baseline_rev,
            "counts": self.counts(),
            "analysis_version_changed": self.analysis_version_changed,
            "rows": [row.as_dict() for row in sorted_rows(self.rows)],
        }


_STATE_ORDER = (Lifecycle.NEW, Lifecycle.REOPENED, Lifecycle.FIXED, Lifecycle.PERSISTENT)


def _reported(findings: Iterable["Finding"]) -> list["Finding"]:
    # The store tracks exactly what the reports surface — pruned and
    # non-cross-scope findings never enter the lifecycle or the gate.
    return [finding for finding in findings if finding.is_reported]


def sorted_rows(rows: Iterable[LifecycleRow]) -> list[LifecycleRow]:
    return sorted(
        rows,
        key=lambda row: (
            _STATE_ORDER.index(row.state),
            row.file,
            row.function,
            row.var,
            row.fingerprint,
        ),
    )


class FindingsStore:
    """Fingerprint-keyed findings store over a pluggable backend."""

    def __init__(self, backend=None):
        self.backend = backend if backend is not None else MemoryBackend()

    @classmethod
    def in_memory(cls) -> "FindingsStore":
        return cls(MemoryBackend())

    @classmethod
    def open(cls, path: str | Path) -> "FindingsStore":
        """A SQLite-backed store at ``path`` (created on first use).  A
        file that is not one raises :class:`StoreError`."""
        try:
            return cls(SqliteBackend(path))
        except sqlite3.Error as error:
            raise StoreError(f"{path} is not a findings store: {error}") from error

    # -- introspection ---------------------------------------------------

    def entries(self) -> dict[str, StoredFinding]:
        return self.backend.entries()

    def active(self) -> list[StoredFinding]:
        return sorted(
            (row for row in self.backend.entries().values() if row.status == "active"),
            key=lambda row: (row.file, row.function, row.var, row.fingerprint),
        )

    def snapshots(self) -> list[SnapshotMeta]:
        return self.backend.snapshots()

    def find(self, prefix: str) -> list[StoredFinding]:
        """Entries whose primary fingerprint starts with ``prefix``."""
        return [
            row
            for fingerprint, row in sorted(self.backend.entries().items())
            if fingerprint.startswith(prefix)
        ]

    def stats(self) -> dict:
        entries = self.backend.entries().values()
        return {
            "entries": len(self.backend.entries()),
            "active": sum(1 for row in entries if row.status == "active"),
            "fixed": sum(1 for row in entries if row.status == "fixed"),
            "snapshots": len(self.backend.snapshots()),
        }

    # -- diffing ---------------------------------------------------------

    def diff(
        self,
        findings: Iterable["Finding"],
        sources: Mapping[str, str | None],
        rev: str = "worktree",
        baseline_rev: str | None = None,
    ) -> LifecycleDiff:
        """Classify ``findings`` against a baseline snapshot, read-only.

        ``baseline_rev=None`` means the latest recorded snapshot; a store
        with no snapshots yet classifies everything as ``new``.
        """
        with obs.span("store.diff", rev=rev):
            return self._classify(_reported(findings), sources, rev, baseline_rev)

    def record_snapshot(
        self,
        findings: Iterable["Finding"],
        sources: Mapping[str, str | None],
        rev: str,
        baseline_rev: str | None = None,
    ) -> LifecycleDiff:
        """Classify ``findings`` and persist the result as snapshot ``rev``."""
        diff = self.diff(findings, sources, rev, baseline_rev)
        self._apply(diff, rev)
        return diff

    # -- internals -------------------------------------------------------

    def _classify(
        self,
        findings: list["Finding"],
        sources: Mapping[str, str | None],
        rev: str,
        baseline_rev: str | None,
    ) -> LifecycleDiff:
        entries = self.backend.entries()
        baseline_version = _analysis_version()
        if baseline_rev is None:
            latest = self.backend.latest()
            if latest is not None:
                baseline_rev = latest.rev
                baseline_version = latest.analysis_version
            members = None if latest is None else self.backend.snapshot_members(
                latest.rev
            )
        else:
            meta = next(
                (m for m in self.backend.snapshots() if m.rev == baseline_rev), None
            )
            if meta is None:
                raise ValueError(f"no snapshot recorded for rev {baseline_rev!r}")
            baseline_version = meta.analysis_version
            members = self.backend.snapshot_members(baseline_rev)
        baseline_members = frozenset(members or ())
        fingerprints = fingerprint_findings(findings, sources)
        metrics = obs.metrics()
        diff = LifecycleDiff(
            rev=rev,
            baseline_rev=baseline_rev,
            fingerprints=fingerprints,
            analysis_version_changed=baseline_version != _analysis_version(),
        )
        # Location index over unmatched baseline members, for fuzzy
        # re-matching once exact primary matches are taken.
        matched: set[str] = set()
        primary_hits = {
            fingerprints[finding.key].primary
            for finding in findings
            if fingerprints[finding.key].primary in baseline_members
        }
        by_location: dict[str, list[str]] = {}
        for fingerprint in sorted(baseline_members - primary_hits):
            row = entries.get(fingerprint)
            if row is not None:
                by_location.setdefault(row.location, []).append(fingerprint)

        for finding in sorted(findings, key=lambda f: f.key):
            fingerprint = fingerprints[finding.key]
            if fingerprint.primary in baseline_members:
                matched.add(fingerprint.primary)
                diff.rows.append(
                    LifecycleRow(
                        state=Lifecycle.PERSISTENT,
                        fingerprint=fingerprint.primary,
                        finding=finding,
                        stored=entries.get(fingerprint.primary),
                    )
                )
                continue
            candidates = by_location.get(fingerprint.location, [])
            if candidates:
                # Refactored statement: same kind/function/variable
                # identity at the baseline, different structure now.
                old = candidates.pop(0)
                matched.add(old)
                diff.rows.append(
                    LifecycleRow(
                        state=Lifecycle.PERSISTENT,
                        fingerprint=fingerprint.primary,
                        finding=finding,
                        stored=entries.get(old),
                        rematched=True,
                    )
                )
                continue
            known = entries.get(fingerprint.primary)
            if known is not None and known.status == "fixed":
                diff.rows.append(
                    LifecycleRow(
                        state=Lifecycle.REOPENED,
                        fingerprint=fingerprint.primary,
                        finding=finding,
                        stored=known,
                    )
                )
                continue
            diff.rows.append(
                LifecycleRow(
                    state=Lifecycle.NEW,
                    fingerprint=fingerprint.primary,
                    finding=finding,
                )
            )
        for fingerprint in sorted(baseline_members - matched):
            row = entries.get(fingerprint)
            diff.rows.append(
                LifecycleRow(
                    state=Lifecycle.FIXED, fingerprint=fingerprint, stored=row
                )
            )
        if metrics is not None:
            metrics.inc("store.fingerprints", len(fingerprints))
            hits = len(diff.persistent())
            metrics.inc("store.hits", hits)
            metrics.inc("store.misses", len(diff.new()) + len(diff.reopened()))
            for state, count in diff.counts().items():
                if count:
                    metrics.inc("store.lifecycle", count, state=state)
        return diff

    def _apply(self, diff: LifecycleDiff, rev: str) -> None:
        """Persist one diff: entry transitions plus the snapshot row."""
        updates: list[StoredFinding] = []
        for row in diff.rows:
            if row.state is Lifecycle.FIXED:
                if row.stored is not None:
                    updates.append(mark_fixed(row.stored, rev))
                continue
            finding = row.finding
            assert finding is not None
            candidate = finding.candidate
            fingerprint = diff.fingerprints[finding.key]
            if row.rematched and row.stored is not None:
                # Re-key the refactored entry under its new primary,
                # keeping its history (first_seen).
                self.backend.replace_fingerprint(
                    row.stored.fingerprint,
                    StoredFinding(
                        fingerprint=fingerprint.primary,
                        location=fingerprint.location,
                        file=candidate.file,
                        function=candidate.function,
                        var=candidate.var,
                        kind=candidate.kind.value,
                        line=candidate.line,
                        status="active",
                        first_seen=row.stored.first_seen,
                        last_seen=rev,
                        analysis_version=_analysis_version(),
                    ),
                )
                continue
            if row.stored is not None:
                updates.append(mark_active(row.stored, rev, line=candidate.line))
                continue
            updates.append(
                StoredFinding(
                    fingerprint=fingerprint.primary,
                    location=fingerprint.location,
                    file=candidate.file,
                    function=candidate.function,
                    var=candidate.var,
                    kind=candidate.kind.value,
                    line=candidate.line,
                    status="active",
                    first_seen=rev,
                    last_seen=rev,
                    analysis_version=_analysis_version(),
                )
            )
        if updates:
            self.backend.upsert_entries(updates)
        members = sorted(
            row.fingerprint
            for row in self.backend.entries().values()
            if row.status == "active"
        )
        previous = self.backend.latest()
        seq = (previous.seq + 1) if previous is not None else 1
        self.backend.add_snapshot(
            SnapshotMeta(
                rev=rev,
                seq=seq,
                findings=len(members),
                analysis_version=_analysis_version(),
            ),
            members,
        )

def diff_to_sarif(
    diff: LifecycleDiff,
    project: str = "project",
    baseline=None,
) -> dict:
    """One lifecycle diff as a SARIF 2.1.0 log with ``baselineState``.

    Live findings carry their lifecycle (``new`` / ``unchanged`` /
    ``updated``) plus the store fingerprints; fixed findings are emitted
    as ``absent`` results so a viewer can close them; findings accepted
    in the baseline file ride with their suppression (justification +
    author) — the round-trip :func:`repro.store.baseline
    .baseline_from_sarif` reads back.
    """
    from repro.core.findings import AuthorshipInfo, Candidate, CandidateKind, Finding
    from repro.core.sarif import findings_to_sarif
    from repro.store.baseline import suppression_for

    live = [row.finding for row in diff.rows if row.finding is not None]
    baseline_states = diff.baseline_states()
    fingerprints: dict[str, Fingerprint] = dict(diff.fingerprints)
    suppressions: dict[str, dict] = {}
    if baseline is not None:
        for finding in live:
            fingerprint = fingerprints.get(finding.key)
            if fingerprint is None:
                continue
            entry = baseline.covers(fingerprint.primary, fingerprint.location)
            if entry is not None:
                suppressions[finding.key] = suppression_for(entry)
    for row in diff.fixed():
        stored = row.stored
        if stored is None:
            continue
        synthetic = Finding(
            candidate=Candidate(
                file=stored.file,
                function=stored.function,
                var=stored.var,
                line=stored.line,
                kind=CandidateKind(stored.kind),
            ),
            authorship=AuthorshipInfo(
                cross_scope=True, reason="stored finding, absent at this revision"
            ),
        )
        live.append(synthetic)
        baseline_states[synthetic.key] = "absent"
        fingerprints[synthetic.key] = Fingerprint(
            primary=row.fingerprint, location=stored.location
        )
    return findings_to_sarif(
        live,
        project=project,
        fingerprints=fingerprints,
        baseline_states=baseline_states,
        suppressions=suppressions or None,
    )
