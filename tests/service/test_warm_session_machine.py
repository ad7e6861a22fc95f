"""A warm session moved at random equals a cold run after every step.

One session is driven through random commit moves (forward and back by
commit id, and ``next``), uncommitted edits, ``baseline``, ``gate`` and
``explain`` requests.  After every step its report must be the one a
cold ``ValueCheck.analyze`` of the session's tree at its revision
produces: counts, findings, fingerprints and every provenance record.
A shadow store that records the cold report at each ``baseline`` step
must give the same ``gate`` verdict as the session's own store.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.project import Project
from repro.core.report import Report
from repro.core.valuecheck import ValueCheck, ValueCheckConfig
from repro.corpus import generate_app
from repro.service.sessions import ProjectSession
from repro.store import FindingsStore, evaluate_gate, fingerprint_findings

#: A window of the history where most commits add or retire findings.
LOW, HIGH = 15, 30
APP = generate_app("mysql", scale=0.05, seed=1)
CONFIG = ValueCheckConfig()
DEAD = "int edit_{n}(void)\n{{\n    int dead;\n    dead = {n};\n    return 0;\n}}\n"

#: Cold reports of unedited revisions, shared by every example.
_PRISTINE: dict[int, Report] = {}


def _tree_at(rev: int) -> dict[str, str]:
    return {
        path: text for path, text in APP.repo.snapshot_at(rev).items() if path.endswith(".c")
    }


def _cold(rev: int, tree: dict[str, str], edited: bool) -> Report:
    if not edited and rev in _PRISTINE:
        return _PRISTINE[rev]
    project = Project.from_sources(
        tree, name=APP.repo.name, repo=APP.repo, build_config=set(APP.build_config)
    )
    report = ValueCheck(CONFIG).analyze(project, rev=rev)
    if not edited:
        _PRISTINE[rev] = report
    return report


def _findings(report) -> list[tuple]:
    return [
        (finding.key, finding.pruned_by, finding.rank, finding.familiarity)
        for finding in report.findings
    ]


class WarmSession(RuleBasedStateMachine):
    @initialize(rev=st.integers(LOW, HIGH))
    def open(self, rev: int) -> None:
        self.rev = rev
        self.tree = _tree_at(rev)
        self.edited = False
        self.edits = 0
        project = Project.from_repository(
            APP.repo, rev=rev, build_config=set(APP.build_config)
        )
        self.session = ProjectSession.open("warm", project, CONFIG, rev=rev)
        self.shadow = FindingsStore.in_memory()

    def cold(self) -> Report:
        return _cold(self.rev, self.tree, self.edited)

    def _moved_to(self, rev: int) -> None:
        self.rev = rev
        self.tree = _tree_at(rev)
        self.edited = False

    @rule(rev=st.integers(LOW, HIGH))
    def move(self, rev: int) -> None:
        self.session.analyze_diff(commit=APP.repo.commits[rev].commit_id)
        self._moved_to(rev)

    @precondition(lambda self: self.rev < HIGH)
    @rule()
    def next(self) -> None:
        self.session.analyze_diff(commit="next")
        self._moved_to(self.rev + 1)

    @rule(pick=st.integers(0, 1 << 16), how=st.sampled_from(["append", "prepend", "delete"]))
    def edit(self, pick: int, how: str) -> None:
        """Add a function with a dead store at either end of a file (a
        prepended one shifts every function below it), or delete a file."""
        paths = sorted(self.tree)
        path = paths[pick % len(paths)]
        self.edits += 1
        dead = DEAD.format(n=self.edits)
        if how == "delete" and len(paths) > 1:
            text = None
            del self.tree[path]
        elif how == "prepend":
            text = self.tree[path] = dead + self.tree[path]
        else:
            text = self.tree[path] = self.tree[path] + dead
        self.session.analyze_diff(changes={path: text})
        self.edited = True

    @rule()
    def baseline(self) -> None:
        recorded = self.session.snapshot_baseline()
        expected = self.shadow.record_snapshot(
            self.cold().findings, self.tree, rev=recorded["rev"]
        )
        assert recorded["counts"] == expected.counts()
        assert self.session.store.entries() == self.shadow.entries()

    @rule()
    def gate(self) -> None:
        verdict = self.session.gate()
        expected = evaluate_gate(
            self.shadow.diff(self.cold().findings, self.tree, rev="worktree")
        )
        assert verdict == dict(
            expected.as_dict(), project_id="warm", summary=expected.summary()
        )

    @rule(pick=st.integers(0, 1 << 16))
    def explain(self, pick: int) -> None:
        cold = self.cold()
        fragments = [finding.key for finding in cold.reported()] + sorted(self.tree)
        fragment = fragments[pick % len(fragments)]
        warm = self.session.explain(fragment)
        assert warm["records"] == [
            record.as_dict() for record in cold.provenance.find(fragment)
        ]
        assert warm["rendered"] == cold.explain(fragment)

    @invariant()
    def equals_a_cold_run(self) -> None:
        report = self.session.report()
        cold = self.cold()
        assert self.session.project.sources == self.tree
        assert report.counts() == cold.counts()
        assert _findings(report) == _findings(cold)
        assert fingerprint_findings(report.reported(), self.tree) == fingerprint_findings(
            cold.reported(), self.tree
        )
        explained = self.session.explain()
        assert explained["records"] == cold.provenance.snapshot()
        assert explained["rendered"] == cold.explain()


WarmSession.TestCase.settings = settings(
    max_examples=12,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestWarmSession = WarmSession.TestCase
