"""Detector behaviour of the two semantic packs: the planted shape is
found, the benign twin stays silent, and the evidence trail is right."""

from __future__ import annotations

from repro.core.findings import CandidateKind
from repro.core.project import Project
from repro.ir.instructions import Call
from repro.rules.base import SiteScan, reassigns
from repro.rules.registry import resolve_rules

from tests.rules.helpers import (
    LEAK_BENIGN_SRC,
    LEAK_SRC,
    UAF_BENIGN_SRC,
    UAF_LOOP_SRC,
    UAF_SRC,
    analyze,
    reported,
)


def findings_of_kind(report, kind):
    return [f for f in reported(report) if f.candidate.kind is kind]


class TestUseAfterFree:
    def test_detects_the_planted_bug(self):
        _, report = analyze({"uaf.c": UAF_SRC})
        rows = findings_of_kind(report, CandidateKind.USE_AFTER_FREE)
        assert len(rows) == 1
        candidate = rows[0].candidate
        assert candidate.var == "p"
        assert candidate.function == "use_after"
        assert candidate.callee == "free"

    def test_evidence_lines_point_at_the_free_site(self):
        _, report = analyze({"uaf.c": UAF_SRC})
        candidate = findings_of_kind(report, CandidateKind.USE_AFTER_FREE)[0].candidate
        (free_line,) = candidate.evidence_lines
        assert UAF_SRC.split("\n")[free_line - 1].strip() == "free(p);"
        # The finding itself anchors at the use, after the free.
        assert candidate.line > free_line

    def test_repointed_pointer_is_benign(self):
        _, report = analyze({"uaf.c": UAF_BENIGN_SRC})
        assert findings_of_kind(report, CandidateKind.USE_AFTER_FREE) == []

    def test_walk_reenters_the_free_sites_own_block(self):
        # Around the loop the walk passes the read above the free and the
        # free itself (a double free) in the free's own block.
        _, report = analyze({"loop.c": UAF_LOOP_SRC})
        rows = findings_of_kind(report, CandidateKind.USE_AFTER_FREE)
        assert [(f.candidate.line, f.candidate.evidence_lines) for f in rows] == [
            (8, (9,)),
            (9, (9,)),
        ]

    def test_semantic_finding_carries_cross_scope_authorship(self):
        _, report = analyze({"uaf.c": UAF_SRC})
        authorship = findings_of_kind(report, CandidateKind.USE_AFTER_FREE)[0].authorship
        assert authorship is not None and authorship.cross_scope
        assert "use_after_free" in authorship.reason


class TestResourceLeak:
    def test_detects_the_partial_release(self):
        _, report = analyze({"leak.c": LEAK_SRC})
        rows = findings_of_kind(report, CandidateKind.RESOURCE_LEAK)
        assert len(rows) == 1
        candidate = rows[0].candidate
        assert candidate.var == "h"
        assert candidate.callee == "fopen"

    def test_evidence_lines_point_at_the_release_sites(self):
        _, report = analyze({"leak.c": LEAK_SRC})
        candidate = findings_of_kind(report, CandidateKind.RESOURCE_LEAK)[0].candidate
        assert candidate.evidence_lines
        for line in candidate.evidence_lines:
            assert "fclose" in LEAK_SRC.split("\n")[line - 1]

    def test_release_on_every_path_is_benign(self):
        _, report = analyze({"leak.c": LEAK_BENIGN_SRC})
        assert findings_of_kind(report, CandidateKind.RESOURCE_LEAK) == []

    def test_never_released_handle_is_benign(self):
        # No release site at all = ownership moved elsewhere; stay silent.
        src = LEAK_SRC.replace("    fclose(h);\n", "")
        _, report = analyze({"leak.c": src})
        assert findings_of_kind(report, CandidateKind.RESOURCE_LEAK) == []


class TestSiteScanWalk:
    def _acquire_site(self):
        function = Project.from_sources({"leak.c": LEAK_SRC}).module("leak.c").functions[
            "partial_release"
        ]
        for block in function.blocks:
            for index, instruction in enumerate(block.instructions):
                if reassigns(instruction, "h"):
                    return block, index
        raise AssertionError("no store to h")

    def test_an_unbarred_walk_reaches_an_exit_past_the_release(self):
        passed, exits = SiteScan.walk_from(*self._acquire_site(), lambda i: False)
        assert exits
        assert any(isinstance(i, Call) and i.callee == "fclose" for i in passed)

    def test_a_barrier_stops_each_path_before_its_instruction(self):
        passed, exits = SiteScan.walk_from(*self._acquire_site(), lambda i: True)
        assert (passed, exits) == ([], False)


class TestRuleSelection:
    def test_disabled_pack_detects_nothing(self):
        from repro.core.valuecheck import ValueCheckConfig

        config = ValueCheckConfig(
            use_authorship=False, rules=("unused_definitions",)
        )
        _, report = analyze({"uaf.c": UAF_SRC, "leak.c": LEAK_SRC}, config)
        kinds = {f.candidate.kind for f in report.findings}
        assert CandidateKind.USE_AFTER_FREE not in kinds
        assert CandidateKind.RESOURCE_LEAK not in kinds

    def test_selection_resolves_through_the_registry(self):
        packs = resolve_rules(("use_after_free",))
        assert [pack.name for pack in packs] == ["use_after_free"]
