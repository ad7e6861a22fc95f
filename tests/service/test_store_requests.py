"""Warm-session store requests: baseline, diff_findings, gate.

The store rides inside each :class:`ProjectSession` (in-memory backend):
its lifecycle state survives ``analyze_diff``, and every snapshot
fingerprints the session's whole current report.
"""

from __future__ import annotations

import pytest

from repro.service import AnalysisService, ServiceConfig

SRC_A = """int helper(int x) {
    int unused = x + 1;
    return x;
}

int main() {
    int r = helper(2);
    helper(3);
    return 0;
}
"""

# One fix (r now read), one new bug (extra), plus a pure line shift.
SRC_B = """// reviewed

int helper(int x) {
    int unused = x + 1;
    return x;
}

int main() {
    int r = helper(2);
    int extra = helper(9);
    helper(3);
    return r;
}
"""


@pytest.fixture
def service():
    service = AnalysisService(ServiceConfig(workers=1)).start()
    yield service
    service.shutdown()


def submit(service, kind, **params):
    response = service.submit({"id": 1, "type": kind, "params": params})
    assert response["ok"], response
    return response["result"]


def open_and_analyze(service, sources=None):
    submit(
        service,
        "open_project",
        sources=dict(sources if sources is not None else {"t.c": SRC_A}),
        project_id="p",
    )
    submit(service, "analyze", project_id="p")


class TestBaselineRequest:
    def test_snapshot_from_warm_state(self, service):
        open_and_analyze(service)
        result = submit(service, "baseline", project_id="p", rev="revA")
        assert result["rev"] == "revA"
        assert result["counts"]["new"] == 2
        assert result["store"] == {
            "entries": 2, "active": 2, "fixed": 0, "snapshots": 1
        }

    def test_default_rev_label(self, service):
        open_and_analyze(service)
        assert submit(service, "baseline", project_id="p")["rev"] == "snapshot-1"

    def test_unknown_project_errors(self, service):
        response = service.submit(
            {"id": 1, "type": "baseline", "params": {"project_id": "ghost"}}
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "unknown_project"


class TestDiffAndGateRequests:
    def test_store_state_survives_analyze_diff(self, service):
        open_and_analyze(service)
        submit(service, "baseline", project_id="p", rev="revA")
        submit(service, "analyze_diff", project_id="p", changes={"t.c": SRC_B})
        diff = submit(service, "diff_findings", project_id="p")
        assert diff["baseline_rev"] == "revA"
        assert diff["counts"] == {
            "new": 1, "persistent": 1, "fixed": 1, "reopened": 0
        }
        states = {row["var"]: row["state"] for row in diff["rows"]}
        assert states == {"extra": "new", "helper": "persistent", "r": "fixed"}

    def test_gate_fails_on_new_finding_only(self, service):
        open_and_analyze(service)
        submit(service, "baseline", project_id="p", rev="revA")
        clean = submit(service, "gate", project_id="p")
        assert clean["ok"] is True and clean["exit_code"] == 0

        submit(service, "analyze_diff", project_id="p", changes={"t.c": SRC_B})
        gate = submit(service, "gate", project_id="p")
        assert gate["ok"] is False and gate["exit_code"] == 1
        assert [row["var"] for row in gate["blocking"]] == ["extra"]
        assert "FAIL" in gate["summary"]

    def test_gate_honours_inline_baseline_entries(self, service):
        open_and_analyze(service)
        submit(service, "baseline", project_id="p", rev="revA")
        submit(service, "analyze_diff", project_id="p", changes={"t.c": SRC_B})
        blocking = submit(service, "gate", project_id="p")["blocking"][0]
        gate = submit(
            service,
            "gate",
            project_id="p",
            baseline_entries=[
                {
                    "fingerprint": blocking["fingerprint"],
                    "justification": "intentional",
                    "author": "reviewer1",
                }
            ],
        )
        assert gate["ok"] is True
        assert gate["counts"]["suppressed"] == 1
        assert "suppressed new" in gate["summary"]

    def test_snapshot_after_one_diff_counts_the_whole_report(self, service):
        open_and_analyze(
            service,
            sources={
                "a.c": SRC_A,
                "b.c": SRC_A.replace("helper", "other").replace("main", "run"),
            },
        )
        submit(service, "baseline", project_id="p", rev="revA")
        submit(
            service,
            "analyze_diff",
            project_id="p",
            changes={"a.c": "// shift\n" + SRC_A},
        )
        result = submit(service, "baseline", project_id="p", rev="revB")
        # Line-shifted a.c and untouched b.c both stay persistent.
        assert result["counts"] == {
            "new": 0, "persistent": 4, "fixed": 0, "reopened": 0
        }
        assert result["store"]["snapshots"] == 2
        gate = submit(service, "gate", project_id="p")
        assert gate["ok"] is True

    def test_unknown_baseline_rev_is_invalid_params(self, service):
        open_and_analyze(service)
        submit(service, "baseline", project_id="p", rev="revA")
        response = service.submit(
            {
                "id": 1,
                "type": "gate",
                "params": {"project_id": "p", "baseline_rev": "ghost"},
            }
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "invalid_params"
