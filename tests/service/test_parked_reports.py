"""Parked reports: a re-opened session starts from its open's report.

A :class:`SessionManager` parks the report an evicted session's open
built, filed under the content key of the tree at open; a re-open of
the same recipe restores it instead of analysing again.  A parked
report is shared, so these tests first pin that nothing mutates a
report once ``rank`` built it, then count the analyses a re-open runs,
check the parked set's caps and its ``close_project`` drop, and the
metrics, journal field and ``open_project`` reply that report restores.
"""

from __future__ import annotations

import copy

import pytest

from repro.core.project import Project
from repro.core.pruning import PruningPipeline
from repro.core.valuecheck import ValueCheck, ValueCheckConfig
from repro.corpus import generate_app
from repro.engine import DEFAULT_CACHE
from repro.obs import EventJournal, MetricsRegistry
from repro.service import AnalysisService, ServiceConfig
from repro.service.sessions import SessionManager

CONFIG = ValueCheckConfig(use_authorship=False)
DEAD = "int f_{tag}(void)\n{{\n    int dead;\n    dead = {n};\n    return 0;\n}}\n"


@pytest.fixture(scope="module")
def app():
    return generate_app("mysql", scale=0.03, seed=1)


def _sources(tag: str, lines: int = 1) -> dict[str, str]:
    return {f"{tag}.c": "".join(DEAD.format(tag=f"{tag}{n}", n=n) for n in range(lines))}


def _open(manager: SessionManager, tag: str, lines: int = 1, config=CONFIG):
    project = Project.from_sources(_sources(tag, lines), name=tag)
    return manager.open(tag, project, config)


def _frozen(report) -> dict:
    """Everything a reader of the report sees, deep-copied."""
    return copy.deepcopy(
        {
            "findings": list(report.findings),
            "rows": [finding.to_row() for finding in report.findings],
            "counts": report.counts(),
            "prune_stats": report.prune_stats,
            "records": report.provenance.snapshot(),
            "explain": report.explain(),
        }
    )


@pytest.fixture
def counted(monkeypatch):
    """Calls of the full pipeline and of its pruning stage."""
    calls = {"analyze": 0, "prune": 0}
    analyze, apply = ValueCheck.analyze, PruningPipeline.apply

    def counting_analyze(self, *args, **kwargs):
        calls["analyze"] += 1
        return analyze(self, *args, **kwargs)

    def counting_apply(self, *args, **kwargs):
        calls["prune"] += 1
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(ValueCheck, "analyze", counting_analyze)
    monkeypatch.setattr(PruningPipeline, "apply", counting_apply)
    return calls


class TestReportIsImmutableAfterRank:
    def test_warm_steps_gate_and_explain_leave_the_open_report_alone(self, app):
        manager = SessionManager(max_sessions=2)
        rev = 20
        project = Project.from_repository(app.repo, rev=rev, build_config=set(app.build_config))
        session, _ = manager.open("warm", project, ValueCheckConfig(), rev=rev)
        opened = session.report()
        before = _frozen(opened)
        assert before["counts"]["reported"] > 0
        session.analyze_diff(commit="next")
        path = sorted(project.sources)[0]
        session.analyze_diff(changes={path: project.sources[path] + DEAD.format(tag="x", n=1)})
        session.snapshot_baseline()
        session.gate()
        session.diff_findings()
        session.explain()
        session.explain(opened.reported()[0].key)
        assert session.report() is not opened
        assert _frozen(opened) == before


class TestReopenRestores:
    def test_parked_hit_runs_no_analysis(self, counted):
        manager = SessionManager(max_sessions=1)
        session, _ = _open(manager, "a")
        built = session.report()
        _open(manager, "b")  # evicts "a", parking its report
        assert counted == {"analyze": 1, "prune": 1}
        reopened, evicted = _open(manager, "a")
        assert evicted == ["b"]
        assert reopened.restored and reopened.report() is built
        assert counted == {"analyze": 1, "prune": 1}
        assert reopened.analyze_count == 0

    def test_dropped_entry_analyses_once(self, counted):
        manager = SessionManager(max_sessions=1)
        _open(manager, "a")[0].report()
        _open(manager, "b")[0].report()  # parks "a"
        _open(manager, "c")  # parks "b": the one-entry cap drops "a"
        assert counted == {"analyze": 2, "prune": 2}
        reopened, _ = _open(manager, "a")
        assert not reopened.restored
        reopened.report()
        assert counted == {"analyze": 3, "prune": 3}

    def test_restored_report_equals_a_cold_run(self):
        manager = SessionManager(max_sessions=1)
        _open(manager, "a", lines=3)[0].report()
        _open(manager, "b")
        DEFAULT_CACHE.clear()
        restored = _open(manager, "a", lines=3)[0].report()
        cold = ValueCheck(CONFIG).analyze(Project.from_sources(_sources("a", 3), name="a"))
        assert restored.counts() == cold.counts()
        assert restored.provenance.snapshot() == cold.provenance.snapshot()
        assert restored.explain() == cold.explain()

    def test_the_open_report_is_parked_not_the_current_one(self):
        manager = SessionManager(max_sessions=1)
        session, _ = _open(manager, "a")
        built = session.report()
        _, edited = session.analyze_diff(changes={"a.c": _sources("a", 2)["a.c"]})
        assert edited.counts() != built.counts()
        _open(manager, "b")
        reopened, _ = _open(manager, "a")
        assert reopened.report() is built
        # The fresh session's findings store starts empty.
        assert reopened.store.snapshots() == []

    def test_a_session_that_built_no_report_parks_nothing(self):
        manager = SessionManager(max_sessions=1)
        _open(manager, "a")
        _open(manager, "b")
        assert not _open(manager, "a")[0].restored

    @pytest.mark.parametrize(
        "reopen",
        [
            {"lines": 2},  # another tree
            {"config": ValueCheckConfig(use_authorship=False, use_familiarity=False)},
        ],
        ids=["tree", "config"],
    )
    def test_a_different_key_misses(self, reopen):
        metrics = MetricsRegistry()
        manager = SessionManager(max_sessions=1, metrics=metrics)
        _open(manager, "a")[0].report()
        _open(manager, "b")
        assert not _open(manager, "a", **reopen)[0].restored
        # The miss drops the stale report; "b" (no report built) parks nothing.
        assert metrics.gauge("service.sessions.parked") == 0

    def test_scheduling_options_do_not_shape_the_key(self):
        manager = SessionManager(max_sessions=1)
        _open(manager, "a")[0].report()
        _open(manager, "b")
        config = ValueCheckConfig(use_authorship=False, workers=1, module_cache=False)
        assert _open(manager, "a", config=config)[0].restored


class TestParkedSetBounds:
    def test_entry_cap_drops_the_least_recently_parked(self):
        manager = SessionManager(max_sessions=2)
        for tag in "abcd":
            _open(manager, tag)[0].report()  # "a" then "b" are parked
        _open(manager, "e")  # parks "c": the two-entry cap drops "a"
        assert not _open(manager, "a")[0].restored
        assert _open(manager, "c")[0].restored

    def test_loc_cap_bounds_parked_lines(self):
        metrics = MetricsRegistry()
        manager = SessionManager(max_sessions=8, max_total_loc=15, metrics=metrics)
        _open(manager, "a", lines=2)[0].report()  # 13 lines
        _open(manager, "b", lines=2)[0].report()  # evicts and parks "a"
        assert metrics.gauge("service.sessions.parked_loc") == 13
        _open(manager, "c", lines=2)  # parks "b": 26 lines, over the cap
        assert metrics.gauge("service.sessions.parked") == 1
        assert metrics.gauge("service.sessions.parked_loc") == 13
        assert _open(manager, "b", lines=2)[0].restored

    def test_close_drops_the_parked_report(self):
        metrics = MetricsRegistry()
        manager = SessionManager(max_sessions=1, metrics=metrics)
        _open(manager, "a")[0].report()
        _open(manager, "b")
        assert metrics.gauge("service.sessions.parked") == 1
        assert manager.close("a") is False  # no live session, but its report goes
        assert metrics.gauge("service.sessions.parked") == 0
        assert metrics.gauge("service.sessions.parked_loc") == 0
        assert not _open(manager, "a")[0].restored


class TestObservability:
    def test_counter_gauges_and_journal(self):
        metrics, journal = MetricsRegistry(), EventJournal()
        manager = SessionManager(max_sessions=1, metrics=metrics, journal=journal)
        _open(manager, "a")[0].report()
        _open(manager, "b")
        assert metrics.gauge("service.sessions.parked") == 1
        assert metrics.gauge("service.sessions.parked_loc") == 7
        assert metrics.counter("service.sessions.restored") == 0
        reopened, _ = _open(manager, "a")
        assert metrics.counter("service.sessions.restored") == 1
        assert metrics.gauge("service.sessions.parked") == 0
        opened = [event.attrs["restored"] for event in journal.events(kind="session.opened")]
        assert opened == [False, False, True]
        assert reopened.stats()["restored"] is True

    def test_open_project_reply_and_stats(self):
        service = AnalysisService(ServiceConfig(workers=1, max_sessions=1)).start()
        try:

            def request(kind, **params):
                response = service.submit({"id": 0, "type": kind, "params": params})
                assert response["ok"], response
                return response["result"]

            assert request("open_project", project_id="a", sources=_sources("a"))["restored"] is False
            before = request("analyze", project_id="a")
            request("open_project", project_id="b", sources=_sources("b"))
            assert request("open_project", project_id="a", sources=_sources("a"))["restored"] is True
            assert request("analyze", project_id="a") == before
            stats = request("stats")
            assert stats["metrics"]["counters"]["service.sessions.restored"] == 1
            assert stats["metrics"]["gauges"]["service.sessions.parked"] == 0
            assert [row["restored"] for row in stats["sessions"]] == [True]
        finally:
            service.shutdown()
