"""End-to-end: daemon over TCP, warm incremental analysis == cold run.

The acceptance path from the issue: start the daemon, open a project at
rev 0, run a full ``analyze``, replay a one-function commit with
``analyze_diff``, and check that (a) the warm request re-analysed only
the changed module/functions (engine cache stats prove it) and (b) the
merged findings are identical to a cold full analysis of the new
revision.
"""

import pytest

from repro.core.project import Project
from repro.core.valuecheck import ValueCheck
from repro.service import (
    AnalysisService,
    ServiceClient,
    ServiceConfig,
    serve_tcp,
    wait_for_port,
)

from tests.core.helpers import AUTHOR1, AUTHOR2, build_multifile_history
from tests.core.test_incremental import BASE, BUGGY_APP


@pytest.fixture(autouse=True)
def fresh_engine_cache():
    """The content-addressed cache is process-wide; clear it so each
    test's hit/miss assertions are independent of execution order."""
    from repro.engine import DEFAULT_CACHE

    DEFAULT_CACHE.clear()
    yield


@pytest.fixture(scope="module")
def repo():
    return build_multifile_history(
        [
            (AUTHOR1, dict(BASE)),
            (AUTHOR2, {"app.c": BUGGY_APP}),
        ]
    )


@pytest.fixture(scope="module")
def repo_path(repo, tmp_path_factory):
    path = tmp_path_factory.mktemp("svc") / "repo.json"
    repo.save(path)
    return path


@pytest.fixture()
def daemon():
    service, server = serve_tcp(
        ServiceConfig(workers=2, queue_capacity=8), port=0, block=False
    )
    host, port = server.address
    assert wait_for_port(host, port)
    client = ServiceClient(host=host, port=port)
    yield client
    try:
        client.shutdown()
    except Exception:
        service.shutdown()
    client.close()
    server.server_close()


def finding_keys(findings):
    """Order-independent identity of reported findings."""
    return sorted((f.candidate.file, f.candidate.function, f.candidate.var,
                   f.candidate.kind.value) for f in findings)


def row_keys(rows):
    return sorted((r["file"], r["function"], r["variable"], r["kind"]) for r in rows)


class TestWarmVersusCold:
    def test_one_function_edit_analyzes_only_changed_module(
        self, daemon, repo, repo_path
    ):
        opened = daemon.open_project(repo=str(repo_path), rev=0, project_id="proj")
        assert opened["has_repo"] and opened["rev"] == 0

        cold_before = daemon.analyze("proj")
        # The session's engine was warmed at open: the full analyze is
        # pure cache hits, nothing re-analysed.
        assert cold_before["engine"]["analyzed"] == 0
        assert cold_before["engine"]["cache_hits"] == len(BASE)

        warm = daemon.analyze_diff("proj", commit="next")
        # Only the one-commit edit's module was re-analysed...
        assert warm["changed_files"] == ["app.c"]
        assert warm["changed_functions"] == ["run"]
        assert warm["engine"]["analyzed"] == 1
        assert warm["engine"]["cache_hits"] == 0  # only app.c was scheduled
        # ...and only functions of the changed module entered the set.
        assert all(path == "app.c" for path, _ in warm["analyzed_functions"])

        # The merged warm report equals a cold full run of rev 1.
        cold = ValueCheck().analyze(Project.from_repository(repo, rev=1), rev=1)
        assert row_keys(warm["findings"]) == [
            key
            for key in finding_keys(cold.reported())
        ]
        assert any(r["variable"] == "r" for r in warm["findings"])

    def test_analyze_after_diff_returns_the_spliced_report(self, daemon, repo, repo_path):
        daemon.open_project(repo=str(repo_path), rev=0, project_id="proj2")
        daemon.analyze("proj2")
        warm = daemon.analyze_diff("proj2", commit="next")
        again = daemon.analyze("proj2")
        # The spliced report, not a re-run: its counts and rows equal a
        # cold run at rev 1, and it reports the diff's engine run.
        cold = ValueCheck().analyze(Project.from_repository(repo, rev=1), rev=1)
        assert again["counts"] == warm["counts"] == cold.counts()
        assert again["prune_stats"] == dict(cold.prune_stats)
        assert row_keys(again["findings"]) == finding_keys(cold.reported())
        assert again["findings"] == warm["findings"]
        assert again["engine"] == warm["engine"]
        assert again["seconds"] == warm["seconds"]
        (session,) = [
            row for row in daemon.stats()["sessions"] if row["project_id"] == "proj2"
        ]
        assert session["analyze_count"] == 1
        assert session["diff_count"] == 1

    def test_sarif_included_when_requested(self, daemon, repo_path):
        daemon.open_project(repo=str(repo_path), rev=0, project_id="proj3")
        result = daemon.analyze("proj3", sarif=True)
        log = result["sarif"]
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "valuecheck"
        diff = daemon.analyze_diff("proj3", commit="next", sarif=True)
        reported = [r for r in diff["sarif"]["runs"][0]["results"]
                    if not r.get("suppressions")]
        # The SARIF results mirror the reported findings one-to-one.
        assert sorted(
            (
                r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],
                r["locations"][0]["logicalLocations"][0]["name"],
                r["ruleId"],
            )
            for r in reported
        ) == sorted(
            (row["file"], row["function"], row["kind"]) for row in diff["findings"]
        )

    def test_uncommitted_edit_diff(self, daemon, repo_path):
        daemon.open_project(repo=str(repo_path), rev=0, project_id="proj4")
        daemon.analyze("proj4")
        result = daemon.analyze_diff("proj4", changes={"app.c": BUGGY_APP})
        assert result["changed_functions"] == ["run"]
        assert result["engine"]["analyzed"] == 1
        # The overwritten definition is detected.  It is NOT reported:
        # authorship for an uncommitted edit resolves against the
        # session's current revision (the edit has no blame yet), a
        # documented approximation — committing it (see the other tests)
        # makes it cross-scope and reported.
        assert result["counts"]["candidates"] >= 1
        assert result["label"] == "edit"

    def test_uncommitted_edit_without_repo_reports(self, daemon):
        daemon.open_project(
            sources=dict(BASE), project_id="norepo", options={"use_authorship": False}
        )
        daemon.analyze("norepo")
        result = daemon.analyze_diff("norepo", changes={"app.c": BUGGY_APP})
        assert result["changed_functions"] == ["run"]
        assert any(r["variable"] == "r" for r in result["findings"])

    def test_stats_surface_sessions_and_cache(self, daemon, repo_path):
        daemon.open_project(repo=str(repo_path), rev=0, project_id="proj5")
        daemon.analyze("proj5")
        stats = daemon.stats()
        assert any(s["project_id"] == "proj5" for s in stats["sessions"])
        assert stats["engine_cache"]["hits"] >= len(BASE)
        assert "service.request_seconds{type=analyze}" in stats["metrics"]["histograms"]

    def test_shutdown_via_client(self, repo_path):
        service, server = serve_tcp(ServiceConfig(workers=1), port=0, block=False)
        host, port = server.address
        assert wait_for_port(host, port)
        with ServiceClient(host=host, port=port) as client:
            summary = client.shutdown()
        assert summary["stopped"] is True
        assert service.stopped
        server.server_close()


class TestUnresolvableCommit:
    """A commit that does not resolve is ``invalid_params``, and the
    session answers ``analyze`` exactly as before it."""

    @pytest.fixture()
    def service(self):
        service = AnalysisService(ServiceConfig(workers=1)).start()
        yield service
        service.shutdown()

    @staticmethod
    def _submit(service, kind, **params):
        return service.submit({"id": 1, "type": kind, "params": params})

    def _assert_rejected(self, service, project_id, commit):
        before = self._submit(service, "analyze", project_id=project_id)
        assert before["ok"], before
        response = self._submit(
            service, "analyze_diff", project_id=project_id, commit=commit
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "invalid_params"
        after = self._submit(service, "analyze", project_id=project_id)
        assert after["result"] == before["result"]

    @pytest.mark.parametrize("commit", ["next", "no-such-commit"])
    def test_commit_past_head_or_unknown_is_invalid_params(
        self, service, repo_path, commit
    ):
        opened = self._submit(
            service, "open_project", repo=str(repo_path), rev=1, project_id="head"
        )
        assert opened["ok"], opened
        self._assert_rejected(service, "head", commit)

    def test_commit_without_a_repository_is_invalid_params(self, service):
        opened = self._submit(
            service, "open_project", sources=dict(BASE), project_id="loose"
        )
        assert opened["ok"], opened
        self._assert_rejected(service, "loose", "next")
