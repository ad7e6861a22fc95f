"""Warm project sessions and their LRU manager.

A :class:`ProjectSession` is the daemon's unit of warm state: a
:class:`~repro.core.project.Project` (source text, plus IR only for
modules that missed the module cache), the incremental analyzer bound to
it (whose engine shares the process-wide content-addressed cache), and
the session's current report.  A warm ``analyze_diff`` settles only
the functions the change can affect, splices their findings into the
session's detection-ordered findings and their provenance records over
the current report's, and ranks the result once through the same
:func:`~repro.core.valuecheck.rank` a cold run uses — so the response is
a *full* report, provenance included.  Every step of that costs
O(change) except the one linear pass that ranks and counts the merged
findings.  The report is a pure function of the session's sources,
revision and config, so ``analyze`` and ``explain`` answer from it
without re-running anything: a full analysis runs only to build a
session's first report, and ``explain`` re-renders only the records
restamped since the last ``explain``.

:class:`SessionManager` bounds the daemon's memory: least-recently-used
sessions are evicted once the entry cap (``max_sessions``) or the
approximate memory cap (``max_total_loc``, lines of warm source) is
exceeded.  Requests against an evicted project get an
``unknown_project`` error and must re-open — eviction is never silent
state corruption.

A re-open replays the same recipe, so its first report would equal the
one the evicted session's open built.  The manager therefore parks that
report on eviction, filed under the project id with the content key of
the tree at open (:func:`content_key`), and a re-open whose key matches
starts from it: no full analysis runs.  The parked set is an LRU of its
own, bounded by the same two caps; a session's findings store is not
parked.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from repro.core.findings import Finding
from repro.core.incremental import IncrementalAnalyzer, IncrementalResult
from repro.core.project import Project
from repro.core.report import Report
from repro.core.valuecheck import ValueCheck, ValueCheckConfig, rank
from repro.engine.cache import ANALYSIS_VERSION
from repro.obs import EventJournal, MetricsRegistry
from repro.obs.clock import monotonic
from repro.store import BaselineEntry, BaselineFile, FindingsStore, evaluate_gate
from repro.store.fingerprint import project_sources


@dataclass
class ProjectSession:
    """One warm project plus everything needed to serve it incrementally."""

    project_id: str
    project: Project
    config: ValueCheckConfig
    analyzer: IncrementalAnalyzer
    #: The serializable recipe this session was opened from: the original
    #: ``open_project`` wire params (source map / root / repo path, rev,
    #: build_config, options) — never live objects.  A router that loses
    #: the worker holding this session replays the recipe on another
    #: worker to re-warm it there (docs/OPERATIONS.md); fingerprints are
    #: deterministic, so the migrated session reports identical findings.
    open_params: dict | None = None
    opened_at: float = field(default_factory=monotonic)
    last_used: float = field(default_factory=monotonic)
    analyze_count: int = 0
    diff_count: int = 0
    # Per-session lock: two workers must not mutate one warm project
    # concurrently (requests for *different* sessions run in parallel).
    lock: threading.Lock = field(default_factory=threading.Lock)
    # Per-session findings store (in-memory): lifecycle state survives
    # analyze_diff, so `baseline`/`diff_findings`/`gate` requests are
    # answered from warm state without re-analysing.
    store: FindingsStore = field(default_factory=FindingsStore.in_memory)
    #: The content key of the tree at open (see :func:`content_key`) and
    #: that tree's LOC, set by :meth:`SessionManager.open`.
    key: tuple | None = None
    key_loc: int = 0
    #: True when the open restored a parked report instead of analysing.
    restored: bool = False
    _last_report: Report | None = None
    # The report the open built (the first full analysis, or the parked
    # report it restored): what the manager parks on eviction.
    _opened: Report | None = None
    # The current report's findings in cold detection order (None until
    # a warm step needs them after a full analysis).
    _ordered: list[Finding] | None = None

    @classmethod
    def open(
        cls,
        project_id: str,
        project: Project,
        config: ValueCheckConfig,
        rev: int | str | None = None,
        open_params: dict | None = None,
    ) -> "ProjectSession":
        analyzer = IncrementalAnalyzer(project, config=config, rev=rev)
        return cls(
            project_id=project_id,
            project=project,
            config=config,
            analyzer=analyzer,
            open_params=open_params,
        )

    # -- requests --------------------------------------------------------

    def analyze_full(self) -> Report:
        """A full pipeline run over the warm project (modules the engine
        has seen before are content-cache hits, not re-analyses).
        :meth:`report` calls it only while the session has no report."""
        with self.lock:
            report = ValueCheck(self.config).analyze(
                self.project, rev=self._rev_for_analysis()
            )
            self._last_report = report
            self._ordered = None
            if not self.diff_count:
                self._opened = report
            self.analyze_count += 1
            self.last_used = monotonic()
            return report

    def report(self) -> Report:
        """The current report: the last full analysis or warm splice,
        analysing fully if the session has none yet.  Its ``seconds``
        and ``engine_stats`` describe the run that built it."""
        with self.lock:
            report = self._last_report
            self.last_used = monotonic()
        if report is None:
            report = self.analyze_full()
        return report

    def analyze_diff(
        self, changes: dict[str, str | None] | None = None, commit: str | None = None
    ) -> tuple[IncrementalResult, Report]:
        """Analyse a change set, or move the session to a commit (``"next"``
        or any commit id), incrementally.  A commit move makes the
        project that revision's tree, dropping uncommitted edits (see
        :meth:`IncrementalAnalyzer.replay`).

        Returns the raw :class:`IncrementalResult` (what was re-analysed,
        engine cache stats, settled findings) plus the merged full
        report: the current report's findings and provenance for
        untouched functions, fresh ones for re-analysed functions,
        everything ranked together.
        A session with no report yet analyses fully first, so there is
        something to splice over.
        """
        if (changes is None) == (commit is None):
            raise ValueError("analyze_diff takes exactly one of changes/commit")
        self.report()
        with self.lock:
            if commit is not None:
                result = self.analyzer.replay(commit)
            else:
                # Uncommitted edits cannot be blamed: authorship for the
                # *changed* functions would attribute new lines to stale
                # commits.  Sessions without a repo never resolve
                # authorship anyway; sessions with one keep resolving at
                # the current revision (documented approximation).
                result = self.analyzer.analyze_changes(
                    changes, rev=self._rev_for_analysis()
                )
            merged = self._merge(result, self._rev_for_analysis())
            self.diff_count += 1
            self.last_used = monotonic()
            return result, merged

    def explain(self, finding: str | None = None) -> dict:
        """Provenance of the current report (the last full analysis or
        warm splice — both carry every candidate's record)."""
        report = self.report()
        with self.lock:
            records = (
                report.provenance.snapshot()
                if finding is None
                else [
                    record.as_dict()
                    for record in report.provenance.find(finding)
                ]
            )
            rendered = report.explain(finding)
            return {
                "project_id": self.project_id,
                "records": records,
                "rendered": rendered,
            }

    def snapshot_baseline(self, rev: str | None = None) -> dict:
        """Record the session's current findings as a store snapshot: the
        whole report is fingerprinted, exactly as ``valuecheck snapshot``
        does for a cold run at the same revision."""
        report = self.report()
        with self.lock:
            label = rev or self._next_rev_label()
            diff = self.store.record_snapshot(
                report.findings, project_sources(self.project), rev=label
            )
            return {
                "project_id": self.project_id,
                "rev": label,
                "counts": diff.counts(),
                "store": self.store.stats(),
            }

    def diff_findings(self, baseline_rev: str | None = None) -> dict:
        """Classify the current findings against a baseline snapshot,
        read-only — store state is not advanced."""
        report = self.report()
        with self.lock:
            diff = self.store.diff(
                report.findings,
                project_sources(self.project),
                rev="worktree",
                baseline_rev=baseline_rev,
            )
            return dict(diff.as_dict(), project_id=self.project_id)

    def gate(
        self,
        baseline_rev: str | None = None,
        baseline_entries: list[dict] | None = None,
    ) -> dict:
        """The CI gate verdict from warm state: fail only on new or
        reopened findings not covered by the accepted baseline."""
        report = self.report()
        with self.lock:
            diff = self.store.diff(
                report.findings,
                project_sources(self.project),
                rev="worktree",
                baseline_rev=baseline_rev,
            )
            baseline = None
            if baseline_entries:
                baseline = BaselineFile(
                    entries=[BaselineEntry.from_dict(row) for row in baseline_entries]
                )
            result = evaluate_gate(diff, baseline)
            return dict(
                result.as_dict(),
                project_id=self.project_id,
                summary=result.summary(),
            )

    # -- internals -------------------------------------------------------

    def _next_rev_label(self) -> str:
        return f"snapshot-{len(self.store.snapshots()) + 1}"

    def _rev_for_analysis(self) -> int | None:
        if self.project.repo is None:
            return None
        return self.analyzer.current_rev

    def _merge(self, result: IncrementalResult, rev: int | None) -> Report:
        """Splice a warm step over the current report.

        Findings and provenance records of every function the step did
        not re-analyse are carried over (their inputs did not change, so
        neither did their verdicts); re-analysed functions bring fresh,
        settled ones.  Detection order is path-major, so each file the
        step touched is one run of the ordered findings: only those runs
        are rebuilt.  One ranking pass over the merged findings then
        restamps the reported records.
        """
        previous = self._last_report
        order = self.analyzer.detection_order

        def position(finding: Finding) -> tuple[str, int]:
            return order[finding.candidate.key]

        def path_of(finding: Finding) -> str:
            return finding.candidate.file

        ordered = self._ordered
        if ordered is None:
            # The first step after a full analysis.  Findings of a file
            # this step changed may have lost their position; they sort
            # to the front of their file's run, which is dropped below.
            ordered = sorted(
                previous.findings,
                key=lambda finding: order.get(
                    finding.candidate.key, (finding.candidate.file, -1)
                ),
            )
        changed_files = set(result.changed_files)
        analyzed = set(result.analyzed_functions)
        fresh: dict[str, list[Finding]] = {}
        for finding in result.findings:
            fresh.setdefault(finding.candidate.file, []).append(finding)
        merged: list[Finding] = []
        dropped: set[str] = set()
        start = 0
        for path in sorted(changed_files.union(path for path, _ in analyzed)):
            low = bisect_left(ordered, path, start, key=path_of)
            high = bisect_right(ordered, path, low, key=path_of)
            merged += ordered[start:low]
            run = []
            for finding in ordered[low:high]:
                candidate = finding.candidate
                if path in changed_files or (path, candidate.function) in analyzed:
                    dropped.add(candidate.key)
                else:
                    run.append(finding)
            run += fresh.get(path, ())
            merged += sorted(run, key=position)
            start = high
        merged += ordered[start:]
        provenance = previous.provenance.splice(dropped, result.provenance)
        report = rank(
            self.project,
            merged,
            self.config,
            rev,
            fresh=result.findings,
            provenance=provenance,
        )
        report = replace(
            report,
            seconds=result.seconds,
            engine_stats=result.engine_stats,
            converged=not result.engine_stats.non_converged,
        )
        self._last_report = report
        self._ordered = merged
        return report

    # -- introspection ---------------------------------------------------

    def loc(self) -> int:
        return self.project.loc()

    def stats(self) -> dict:
        return {
            "project_id": self.project_id,
            "project": self.project.name,
            "modules": len(self.project.sources),
            "loc": self.loc(),
            "has_repo": self.project.repo is not None,
            "analyze_count": self.analyze_count,
            "diff_count": self.diff_count,
            "idle_seconds": round(monotonic() - self.last_used, 3),
            "reopenable": self.open_params is not None,
            "restored": self.restored,
        }


def content_key(session: ProjectSession) -> tuple:
    """What the report of a session's tree at open is a function of
    besides its project id: the analysis version, tree, revision and
    repository content, build config, and the config fields that shape
    a report (not the engine's scheduling).  Equal keys give equal
    reports."""
    project = session.project
    tree = hashlib.sha256()
    for path, text in sorted(project.sources.items()):
        tree.update(path.encode() + b"\x00" + hashlib.sha256(text.encode()).digest())
    history = project.repo.to_dict()["digest"] if project.repo is not None else None
    shaping = replace(session.config, executor="serial", workers=None, module_cache=True)
    return (
        ANALYSIS_VERSION,
        tree.hexdigest(),
        session._rev_for_analysis(),
        history,
        frozenset(project.build_config),
        shaping,
    )


class SessionManager:
    """Thread-safe LRU of warm sessions with entry and memory caps, plus
    the reports of evicted sessions' opens (the parked set) under the
    same caps."""

    def __init__(
        self,
        max_sessions: int = 8,
        max_total_loc: int | None = None,
        metrics: MetricsRegistry | None = None,
        journal: EventJournal | None = None,
    ):
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.max_sessions = max_sessions
        self.max_total_loc = max_total_loc
        self.metrics = metrics
        self.journal = journal
        self._lock = threading.Lock()
        self._sessions: OrderedDict[str, ProjectSession] = OrderedDict()
        # project id -> (content key, report, LOC of its tree), least
        # recently parked first: a project's re-open replays its latest
        # recipe, so one parked report per project is enough.
        self._parked: OrderedDict[str, tuple[tuple, Report, int]] = OrderedDict()
        self._parked_loc = 0

    def open(
        self,
        project_id: str,
        project: Project,
        config: ValueCheckConfig,
        rev: int | str | None = None,
        open_params: dict | None = None,
    ) -> tuple[ProjectSession, list[str]]:
        """Create (or replace) a warm session; returns it plus the ids of
        any sessions evicted to make room.  A session whose project's
        parked report has its content key starts from that report."""
        session = ProjectSession.open(
            project_id, project, config, rev=rev, open_params=open_params
        )
        session.key = content_key(session)
        session.key_loc = session.loc()
        with self._lock:
            parked = self._unpark_locked(project_id)
            if parked is not None and parked[0] == session.key:
                session._last_report = session._opened = parked[1]
                session.restored = True
            self._sessions.pop(project_id, None)
            self._sessions[project_id] = session
            evicted = self._evict_locked()
            self._record_gauges_locked()
        if session.restored and self.metrics is not None:
            self.metrics.inc("service.sessions.restored")
        if self.journal is not None:
            self.journal.emit(
                "session.opened",
                project_id=project_id,
                modules=len(project.sources),
                loc=session.key_loc,
                restored=session.restored,
            )
        return session, evicted

    def get(self, project_id: str) -> ProjectSession | None:
        with self._lock:
            session = self._sessions.get(project_id)
            if session is not None:
                self._sessions.move_to_end(project_id)
            return session

    def close(self, project_id: str) -> bool:
        """Drop a session and any report parked for its project."""
        with self._lock:
            found = self._sessions.pop(project_id, None) is not None
            self._unpark_locked(project_id)
            self._record_gauges_locked()
            return found

    def _evict_locked(self) -> list[str]:
        evicted: list[tuple[ProjectSession, str]] = []  # (session, reason)
        while len(self._sessions) > self.max_sessions:
            evicted.append((self._sessions.popitem(last=False)[1], "max_sessions"))
        if self.max_total_loc is not None:
            # Keep at least the most recent session even if it alone
            # exceeds the cap (the daemon must be able to serve it).
            while (
                len(self._sessions) > 1
                and sum(s.loc() for s in self._sessions.values()) > self.max_total_loc
            ):
                evicted.append((self._sessions.popitem(last=False)[1], "max_total_loc"))
        for session, _ in evicted:
            self._park_locked(session)
        if evicted and self.metrics is not None:
            self.metrics.inc("service.sessions.evicted", len(evicted))
        if self.journal is not None:
            for session, reason in evicted:
                self.journal.emit(
                    "session.evicted", project_id=session.project_id, reason=reason
                )
        return [session.project_id for session, _ in evicted]

    def _park_locked(self, session: ProjectSession) -> None:
        """Park the report the session's open built (if it built one yet),
        then drop the least recently parked reports over either cap."""
        if session._opened is None:
            return
        # Opening an id took its parked report out, so a live session's
        # id has none to replace.
        self._parked[session.project_id] = (session.key, session._opened, session.key_loc)
        self._parked_loc += session.key_loc
        while len(self._parked) > self.max_sessions or (
            self.max_total_loc is not None and self._parked_loc > self.max_total_loc
        ):
            self._parked_loc -= self._parked.popitem(last=False)[1][2]

    def _unpark_locked(self, project_id: str) -> tuple | None:
        """Take a project's parked (key, report, LOC) out of the set."""
        parked = self._parked.pop(project_id, None)
        if parked is not None:
            self._parked_loc -= parked[2]
        return parked

    def _record_gauges_locked(self) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge("service.sessions.open", len(self._sessions))
            self.metrics.set_gauge("service.sessions.parked", len(self._parked))
            self.metrics.set_gauge("service.sessions.parked_loc", self._parked_loc)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def ids(self) -> list[str]:
        with self._lock:
            return list(self._sessions)

    def stats(self) -> list[dict]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [session.stats() for session in sessions]
