"""A warm session equals a cold analysis after every step.

A session replays commits (or feeds their edits as uncommitted changes)
through ``analyze_diff``; after each step its report must be the one a
cold ``ValueCheck.analyze`` of the same revision produces: every
provenance record and the rendered ``explain`` text, the counts, the
per-pruner statistics and the reported order.  Two small histories pin
the verdicts that change in a function no diff reaches.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.incremental import IncrementalResult
from repro.core.project import Project
from repro.core.valuecheck import ValueCheck, ValueCheckConfig
from repro.corpus import generate_app
from repro.errors import ReproError
from repro.service import AnalysisService, ServiceConfig
from repro.service.sessions import ProjectSession
from repro.store import FindingsStore
from repro.store.fingerprint import project_sources

from tests.core.stale_verdicts import (
    CALLEE_KEY,
    IGNORES_ONE,
    LIB,
    PARAM_KEY,
    PEER_AFTER,
    PEER_BEFORE,
    PEER_KEY,
    callee_history,
    param_history,
)

#: The replayed window: in this stretch of the history most commits add or
#: retire reported findings and move the ranks of others.
START, STEPS = 20, 10


@pytest.fixture(scope="module")
def app():
    return generate_app("mysql", scale=0.05, seed=1)


def _view(report, explained: dict) -> dict:
    return {
        "records": explained["records"],
        "rendered": explained["rendered"],
        "counts": report.counts(),
        "prune_stats": report.prune_stats,
        "reported": [finding.key for finding in report.reported()],
    }


def _cold_view(config: ValueCheckConfig, project: Project, rev) -> dict:
    report = ValueCheck(config).analyze(project, rev=rev)
    explained = {"records": report.provenance.snapshot(), "rendered": report.explain()}
    return _view(report, explained)


def _sources_at(app, rev: int) -> dict[str, str]:
    snapshot = app.repo.snapshot_at(rev)
    return {path: text for path, text in snapshot.items() if path.endswith(".c")}


def _c_changes(app, rev: int) -> dict[str, str | None]:
    """The C sources commit ``rev`` touches: path → new text (None = deleted)."""
    changes = app.repo.commits[rev].changes
    return {path: text for path, text in changes.items() if path.endswith(".c")}


@pytest.mark.parametrize(
    "options",
    [{}, {"familiarity_model": "ea"}, {"history_pruning": True}],
    ids=["default", "ea", "history"],
)
def test_replayed_commits(app, options):
    config = ValueCheckConfig(**options)
    build_config = set(app.build_config)
    start = START
    project = Project.from_repository(app.repo, rev=start, build_config=build_config)
    session = ProjectSession.open("warm", project, config, rev=start)
    earlier = session.analyze_full()
    for rev in range(start + 1, start + 1 + STEPS):
        handed_out = earlier.explain_jsonl()
        _, merged = session.analyze_diff(commit="next")
        cold = Project.from_repository(app.repo, rev=rev, build_config=build_config)
        assert _view(merged, session.explain()) == _cold_view(config, cold, rev), rev
        # Splicing shares records with the earlier report; it must not
        # restamp them.
        assert earlier.explain_jsonl() == handed_out
        earlier = merged


@pytest.mark.parametrize(
    "target, edited",
    [(START + 4, False), (START - 3, False), (START + 1, True)],
    ids=["forward-jump", "backward-jump", "edit-then-next"],
)
def test_a_commit_move_lands_on_the_target_tree(app, target, edited):
    """A session sent any commit id, forward or back, equals a cold run
    at that revision; a move after an uncommitted edit drops the edit."""
    config = ValueCheckConfig()
    build_config = set(app.build_config)
    project = Project.from_repository(app.repo, rev=START, build_config=build_config)
    session = ProjectSession.open("warm", project, config, rev=START)
    session.analyze_full()
    commit = app.repo.commits[target].commit_id
    if edited:
        # A file the next commit leaves alone, so only the move can undo it.
        path = min(set(project.sources) - set(_c_changes(app, target)))
        dead = "int edited_here(void)\n{\n    int dead;\n    dead = 1;\n    return 0;\n}\n"
        session.analyze_diff(changes={path: project.sources[path] + dead})
        commit = "next"
    _, merged = session.analyze_diff(commit=commit)
    cold = Project.from_repository(app.repo, rev=target, build_config=build_config)
    assert session.project.sources == cold.sources
    assert _view(merged, session.explain()) == _cold_view(config, cold, target)


def test_source_only_edits(app):
    config = ValueCheckConfig(use_authorship=False)
    build_config = set(app.build_config)
    start = START
    project = Project.from_sources(
        _sources_at(app, start), name="warm", build_config=build_config
    )
    session = ProjectSession.open("warm", project, config)
    earlier = session.analyze_full()
    for rev in range(start + 1, start + 1 + STEPS):
        handed_out = earlier.explain_jsonl()
        _, merged = session.analyze_diff(changes=_c_changes(app, rev))
        cold = Project.from_sources(_sources_at(app, rev), name="warm", build_config=build_config)
        assert _view(merged, session.explain()) == _cold_view(config, cold, None), rev
        assert earlier.explain_jsonl() == handed_out
        earlier = merged


def test_interleaved_requests_keep_the_session_cold_equal(app):
    """Reads between diffs fill the provenance caches each diff must then
    invalidate, and an ``analyze`` read hands out the report the next
    diff splices over; neither may leave the session differing from a
    cold analysis."""
    config = ValueCheckConfig()
    build_config = set(app.build_config)
    project = Project.from_repository(app.repo, rev=START, build_config=build_config)
    session = ProjectSession.open("warm", project, config, rev=START)
    for step, rev in enumerate(range(START + 1, START + 1 + STEPS)):
        explained = session.explain()
        reported = [row["key"] for row in explained["records"] if row["status"] == "reported"]
        some_file = explained["records"][0]["detection"]["file"]
        for fragment in reported[:1] + [some_file]:
            session.explain(fragment)
        session.snapshot_baseline()
        assert "ok" in session.gate()
        if step % 3 == 1:
            session.report()
        _, merged = session.analyze_diff(commit="next")
        assert session.report() is merged

        cold_project = Project.from_repository(app.repo, rev=rev, build_config=build_config)
        cold = ValueCheck(config).analyze(cold_project, rev=rev)
        explained = {"records": cold.provenance.snapshot(), "rendered": cold.explain()}
        assert _view(merged, session.explain()) == _view(cold, explained), rev
        fragments = [finding.key for finding in cold.reported()[:2]] + [some_file]
        for fragment in fragments:
            warm = session.explain(fragment)
            assert warm["records"] == [
                record.as_dict() for record in cold.provenance.find(fragment)
            ], (rev, fragment)
            assert warm["rendered"] == cold.explain(fragment), (rev, fragment)
    assert session.analyze_count == 1


def _live_steps() -> int:
    gc.collect()
    return sum(isinstance(obj, IncrementalResult) for obj in gc.get_objects())


def test_diffs_without_a_baseline_keep_at_most_one_step(app):
    """A session that records no baseline between diffs keeps none of
    its warm steps, and the baseline it then records equals a full
    re-fingerprint of its report."""
    config = ValueCheckConfig()
    build_config = set(app.build_config)
    project = Project.from_repository(app.repo, rev=START, build_config=build_config)
    session = ProjectSession.open("warm", project, config, rev=START)
    session.snapshot_baseline()
    live = _live_steps()
    for _ in range(50):
        session.analyze_diff(commit="next")
    assert _live_steps() == live
    recorded = session.snapshot_baseline()

    store = FindingsStore.in_memory()
    for rev, label in [(START, "snapshot-1"), (START + 50, "snapshot-2")]:
        cold_project = Project.from_repository(app.repo, rev=rev, build_config=build_config)
        cold = ValueCheck(config).analyze(cold_project, rev=rev)
        diff = store.record_snapshot(cold.findings, project_sources(cold_project), rev=label)
    assert recorded["counts"] == diff.counts()
    assert session.store.entries() == store.entries()


class TestStaleVerdicts:
    """A change moves a verdict in a function the diff never reached."""

    def test_peer_pruning_follows_other_files_calls(self):
        config = ValueCheckConfig(use_authorship=False)
        session = ProjectSession.open("p", Project.from_sources(dict(PEER_BEFORE)), config)
        assert session.analyze_full().counts()["reported"] == 1
        _, merged = session.analyze_diff(changes=dict(PEER_AFTER))
        (finding,) = [f for f in merged.findings if f.key == PEER_KEY]
        assert finding.pruned_by == "peer_definition"
        cold = ValueCheck(config).analyze(Project.from_sources({**PEER_BEFORE, **PEER_AFTER}))
        assert merged.counts() == cold.counts() == {
            "candidates": 11, "cross_scope": 11, "pruned": 11, "reported": 0
        }

    @pytest.mark.parametrize(
        "edit",
        [{"lib.c": None}, {"lib.c": "\n" * 8 + LIB}],
        ids=["callee-file-deleted", "callee-return-line-shifted"],
    )
    def test_callers_follow_a_moved_definition(self, edit):
        repo = callee_history()
        session = ProjectSession.open(
            "p", Project.from_repository(repo), ValueCheckConfig(), rev=1
        )
        (record,) = session.explain(CALLEE_KEY)["records"]
        assert record["resolution"]["counterpart_authors"] == ["author1"]
        session.analyze_diff(changes=edit)
        tree = {"b.c": IGNORES_ONE, **{p: t for p, t in edit.items() if t is not None}}
        cold = ValueCheck(ValueCheckConfig()).analyze(
            Project.from_sources(tree, name=repo.name, repo=repo), rev=1
        )
        (record,) = session.explain(CALLEE_KEY)["records"]
        assert record["resolution"]["counterpart_authors"] == ["<external>"]
        assert session.explain()["records"] == cold.provenance.snapshot()

    def test_new_caller_makes_parameter_cross_scope(self):
        repo = param_history()
        session = ProjectSession.open(
            "p", Project.from_repository(repo, rev=0), ValueCheckConfig(), rev=0
        )
        assert session.analyze_full().counts()["reported"] == 0
        _, merged = session.analyze_diff(commit="next")
        assert [f.key for f in merged.reported()] == [PARAM_KEY]
        (record,) = session.explain(PARAM_KEY)["records"]
        assert record["status"] == "reported"
        assert record["resolution"]["counterpart_authors"] == ["author2", "author1"]


def test_first_diff_of_a_session_splices_over_a_full_analysis():
    config = ValueCheckConfig(use_authorship=False)
    session = ProjectSession.open("p", Project.from_sources(dict(PEER_BEFORE)), config)
    _, merged = session.analyze_diff(changes=dict(PEER_AFTER))
    assert session.analyze_count == 1
    cold = ValueCheck(config).analyze(Project.from_sources({**PEER_BEFORE, **PEER_AFTER}))
    assert merged.counts() == cold.counts()
    assert merged.provenance.snapshot() == cold.provenance.snapshot()


def test_change_that_does_not_parse_leaves_the_session_intact():
    config = ValueCheckConfig(use_authorship=False)
    session = ProjectSession.open("p", Project.from_sources(dict(PEER_BEFORE)), config)
    session.analyze_full()
    with pytest.raises(ReproError):
        session.analyze_diff(changes={**PEER_AFTER, "b.c": "void g(void)\n{\n"})
    edit = {"b.c": PEER_BEFORE["b.c"].replace("f(1);", "f(2);")}
    _, merged = session.analyze_diff(changes=edit)
    cold = ValueCheck(config).analyze(Project.from_sources({**PEER_BEFORE, **edit}))
    assert merged.provenance.snapshot() == cold.provenance.snapshot()


def test_ea_familiarity_ranks_warm_like_cold(app):
    """The warm splice ranks with the configured familiarity model."""
    config = ValueCheckConfig(familiarity_model="ea")
    rev = len(app.repo.commits) - 2
    build_config = set(app.build_config)
    project = Project.from_repository(app.repo, rev=rev, build_config=build_config)
    session = ProjectSession.open("ea", project, config, rev=rev)
    session.analyze_full()
    _, merged = session.analyze_diff(commit="next")
    cold = ValueCheck(config).analyze(
        Project.from_repository(app.repo, rev=rev + 1, build_config=build_config), rev=rev + 1
    )
    ranked = [(f.key, f.rank, f.familiarity) for f in merged.reported()]
    assert ranked == [(f.key, f.rank, f.familiarity) for f in cold.reported()]
    assert all(
        record["ranking"]["breakdown"]["model"] == "ea"
        for record in session.explain()["records"]
        if record["status"] == "reported"
    )


def test_explain_after_diff_does_not_reanalyse(monkeypatch):
    service = AnalysisService(ServiceConfig()).start()
    try:
        opened = service.submit(
            {
                "id": 1,
                "type": "open_project",
                "params": {
                    "project_id": "p",
                    "sources": dict(PEER_BEFORE),
                    "options": {"use_authorship": False},
                },
            }
        )
        assert opened["ok"], opened
        assert service.submit({"id": 2, "type": "analyze", "params": {"project_id": "p"}})["ok"]
        diff = service.submit(
            {"id": 3, "type": "analyze_diff", "params": {"project_id": "p", "changes": PEER_AFTER}}
        )
        assert diff["ok"], diff
        session = service.sessions.get("p")
        count = session.analyze_count

        def no_full_run(*args, **kwargs):
            raise AssertionError("explain re-ran the pipeline")

        monkeypatch.setattr(ValueCheck, "analyze", no_full_run)
        explained = service.submit({"id": 4, "type": "explain", "params": {"project_id": "p"}})
        assert explained["ok"], explained
        assert session.analyze_count == count
        records = {record["key"]: record for record in explained["result"]["records"]}
        assert records[PEER_KEY]["pruned_by"] == "peer_definition"
        assert "pruned by peer_definition" in explained["result"]["rendered"]
    finally:
        service.shutdown()
