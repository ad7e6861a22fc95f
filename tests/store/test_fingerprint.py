"""Stable fingerprints: line-drift invariance, ordinals, determinism."""

from __future__ import annotations

from repro.core.findings import Candidate, CandidateKind, Finding
from repro.core.valuecheck import ValueCheckConfig
from repro.store.fingerprint import (
    fingerprint_candidate,
    fingerprint_findings,
    normalize_line,
    structural_context,
    variable_path,
)

from tests.store.helpers import SRC, analyze, reported, sources_of


class TestNormalizeLine:
    def test_collapses_whitespace(self):
        assert normalize_line("   int   x  =  1 ;") == "int x = 1 ;"

    def test_strips_line_comment(self):
        assert normalize_line("int x = 1; // the answer") == "int x = 1;"

    def test_strips_block_comment(self):
        assert normalize_line("int /* note */ x = 1;") == "int x = 1;"

    def test_open_block_comment_truncates(self):
        assert normalize_line("int x = 1; /* continues") == "int x = 1;"

    def test_comment_only_line_is_empty(self):
        assert normalize_line("  // nothing here") == ""
        assert normalize_line("/* nothing here */") == ""


class TestStructuralContext:
    SOURCE = "int a;\n\n// gap\nint b;\nint c;\n"

    def test_window_skips_blank_and_comment_lines(self):
        # `int b;` on line 4: the nearest non-blank neighbour above is
        # `int a;` (lines 2-3 are blank/comment — transparent).
        assert structural_context(self.SOURCE, 4) == ("int a;", "int b;", "int c;")

    def test_missing_source_is_empty(self):
        assert structural_context(None, 4) == ()

    def test_out_of_range_line_is_empty(self):
        assert structural_context(self.SOURCE, 99) == ()
        assert structural_context(self.SOURCE, 0) == ()


class TestVariablePath:
    def _candidate(self, **kwargs):
        defaults = dict(
            file="t.c", function="f", var="v", line=3, kind=CandidateKind.DEAD_STORE
        )
        defaults.update(kwargs)
        return Candidate(**defaults)

    def test_plain_variable(self):
        assert variable_path(self._candidate()) == "v"

    def test_field_prefix(self):
        assert variable_path(self._candidate(is_field=True)) == "field:v"

    def test_param_suffix(self):
        assert variable_path(self._candidate(param_index=2)) == "v@param2"


class TestLineShiftInvariance:
    def _fingerprint_set(self, source):
        project, report = analyze({"t.c": source})
        mapping = fingerprint_findings(reported(report), sources_of(project))
        return sorted(fp.primary for fp in mapping.values())

    def test_blank_lines_above_do_not_change_fingerprints(self):
        base = self._fingerprint_set(SRC)
        shifted = self._fingerprint_set("\n\n\n" + SRC)
        assert base == shifted

    def test_comment_lines_between_context_lines_do_not_change(self):
        # Insert a comment *inside* the context window of the findings in
        # main() — blank/comment transparency must hold there too.
        edited = SRC.replace(
            "    int r = helper(2);\n",
            "    int r = helper(2);\n    // reviewed 2024-05\n\n",
        )
        assert self._fingerprint_set(SRC) == self._fingerprint_set(edited)

    def test_editing_the_defining_statement_changes_primary(self):
        project, report = analyze({"t.c": SRC})
        base = fingerprint_findings(reported(report), sources_of(project))
        edited_src = SRC.replace("int r = helper(2);", "int r = helper(20);")
        project2, report2 = analyze({"t.c": edited_src})
        edited = fingerprint_findings(reported(report2), sources_of(project2))

        def by_var(mapping, var):
            return next(
                fp for key, fp in mapping.items() if f":{var}:" in key
            )

        assert by_var(base, "r").primary != by_var(edited, "r").primary
        # The coarse location identity survives the rewrite — that is
        # what the store's fuzzy re-match keys on.
        assert by_var(base, "r").location == by_var(edited, "r").location

    def test_line_numbers_are_not_part_of_the_material(self):
        candidate = Candidate(
            file="t.c", function="f", var="v", line=5, kind=CandidateKind.DEAD_STORE
        )
        source = "a;\nb;\nc;\nd;\nv = 1;\ne;\n"
        shifted_candidate = Candidate(
            file="t.c", function="f", var="v", line=7, kind=CandidateKind.DEAD_STORE
        )
        shifted_source = "\n\na;\nb;\nc;\nd;\nv = 1;\ne;\n"
        assert fingerprint_candidate(candidate, source) == fingerprint_candidate(
            shifted_candidate, shifted_source
        )


class TestOrdinals:
    def _finding(self, line):
        return Finding(
            candidate=Candidate(
                file="t.c", function="f", var="v", line=line,
                kind=CandidateKind.DEAD_STORE,
            )
        )

    # Identical statements with identical context windows: only the
    # ordinal separates them.
    SOURCE = "pad();\nv = 1;\npad();\nv = 1;\npad();\n"

    def test_identical_material_gets_distinct_fingerprints(self):
        mapping = fingerprint_findings(
            [self._finding(2), self._finding(4)], {"t.c": self.SOURCE}
        )
        fingerprints = list(mapping.values())
        assert fingerprints[0].primary != fingerprints[1].primary
        assert fingerprints[0].location != fingerprints[1].location

    def test_ordinals_survive_line_shifts(self):
        before = fingerprint_findings(
            [self._finding(2), self._finding(4)], {"t.c": self.SOURCE}
        )
        shifted_source = "\n\n" + self.SOURCE
        after = fingerprint_findings(
            [self._finding(4), self._finding(6)], {"t.c": shifted_source}
        )
        assert sorted(fp.primary for fp in before.values()) == sorted(
            fp.primary for fp in after.values()
        )

    def test_ordinal_assignment_ignores_input_order(self):
        forward = fingerprint_findings(
            [self._finding(2), self._finding(4)], {"t.c": self.SOURCE}
        )
        backward = fingerprint_findings(
            [self._finding(4), self._finding(2)], {"t.c": self.SOURCE}
        )
        assert forward == backward


class TestDeterminism:
    def test_identical_across_executors(self):
        serial_project, serial_report = analyze(
            {"t.c": SRC},
            config=ValueCheckConfig(use_authorship=False, executor="serial"),
        )
        process_project, process_report = analyze(
            {"t.c": SRC},
            config=ValueCheckConfig(use_authorship=False, executor="process", workers=2),
        )
        assert fingerprint_findings(
            reported(serial_report), sources_of(serial_project)
        ) == fingerprint_findings(
            reported(process_report), sources_of(process_project)
        )

    def test_identical_across_cache_replays(self):
        # Second analyze of identical sources is a content-cache replay.
        first_project, first_report = analyze({"t.c": SRC})
        second_project, second_report = analyze({"t.c": SRC})
        assert fingerprint_findings(
            reported(first_report), sources_of(first_project)
        ) == fingerprint_findings(
            reported(second_report), sources_of(second_project)
        )


class TestPinnedDigests:
    """Fingerprints are stored across runs and releases: the material and
    its hashing are pinned digest for digest (a change to either must
    bump ``FINGERPRINT_VERSION``)."""

    SOURCE = "int f(void)\n{\n    int v; // note\n\n    v = 1;   /* set */\n    return 0;\n}\n"

    def _candidate(self, line=5, **kwargs):
        return Candidate(
            file="t.c", function="f", var="v", line=line,
            kind=CandidateKind.DEAD_STORE, **kwargs,
        )

    def test_candidate_digests(self):
        assert fingerprint_candidate(self._candidate(), self.SOURCE).as_dict() == {
            "primary": "5ff19cd67b1ca37b0ffbf818de436d7d",
            "location": "0c21ad2a3886155fc4bff472d5d1380a",
        }
        assert fingerprint_candidate(self._candidate(), self.SOURCE, ordinal=1).as_dict() == {
            "primary": "ad7d2a491996e2b1365ec60d9d40578b",
            "location": "4a0f5bb0a6e6b9e1c6f6b04db668bf4b",
        }

    def test_field_parameter_without_source(self):
        # No source text: no context window, so both keys hash the same material.
        fingerprint = fingerprint_candidate(
            self._candidate(is_field=True, param_index=0), None
        )
        assert fingerprint.primary == fingerprint.location == "4a79ca247034b726e8696b83f15e2de5"

    def test_report_digests(self):
        source = self.SOURCE + "    v = 1;   /* set */\n"
        mapping = fingerprint_findings(
            [Finding(self._candidate(6)), Finding(self._candidate(5))], {"t.c": source}
        )
        assert {key: fp.as_dict() for key, fp in mapping.items()} == {
            "t.c:f:v:5:dead_store": {
                "primary": "5ff19cd67b1ca37b0ffbf818de436d7d",
                "location": "0c21ad2a3886155fc4bff472d5d1380a",
            },
            "t.c:f:v:6:dead_store": {
                "primary": "68b070b71ed3dbe50d46e915486aade6",
                "location": "4a0f5bb0a6e6b9e1c6f6b04db668bf4b",
            },
        }
