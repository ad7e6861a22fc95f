"""Unit tests for Report and the Finding/Candidate record types."""

import pytest

from repro.core.findings import (
    AuthorshipInfo,
    Candidate,
    CandidateKind,
    Finding,
)
from repro.core.report import Report
from repro.ir import StoreKind


def make_candidate(var="ret", kind=CandidateKind.OVERWRITTEN_DEF, line=10):
    return Candidate(
        file="a.c",
        function="f",
        var=var,
        line=line,
        kind=kind,
        store_kind=StoreKind.ASSIGN,
    )


def make_finding(var="ret", cross=True, pruned_by=None, rank=None, familiarity=None):
    return Finding(
        candidate=make_candidate(var=var),
        authorship=AuthorshipInfo(
            cross_scope=cross, def_author="a", introducing_author="b", blamed_file="a.c"
        ),
        pruned_by=pruned_by,
        rank=rank,
        familiarity=familiarity,
    )


class TestCandidate:
    def test_key_stable(self):
        assert make_candidate().key == make_candidate().key

    def test_key_distinguishes_kind(self):
        a = make_candidate(kind=CandidateKind.OVERWRITTEN_DEF)
        b = make_candidate(kind=CandidateKind.DEAD_STORE)
        assert a.key != b.key

    def test_param_shape_property(self):
        assert CandidateKind.UNUSED_PARAM.is_param_shape
        assert CandidateKind.OVERWRITTEN_ARG.is_param_shape
        assert not CandidateKind.DEAD_STORE.is_param_shape

    def test_str(self):
        assert "a.c:10" in str(make_candidate())


class TestFinding:
    def test_is_reported_requires_cross_and_unpruned(self):
        assert make_finding().is_reported
        assert not make_finding(cross=False).is_reported
        assert not make_finding(pruned_by="cursor").is_reported

    def test_no_authorship_not_reported(self):
        finding = Finding(candidate=make_candidate())
        assert not finding.is_reported

    def test_with_rank(self):
        ranked = make_finding().with_rank(3)
        assert ranked.rank == 3

    def test_to_row_fields(self):
        row = make_finding(rank=1, familiarity=2.5).to_row()
        assert row["rank"] == 1
        assert row["kind"] == "overwritten_def"
        assert row["familiarity"] == "2.500"
        assert row["introducing_author"] == "b"


class TestReport:
    def make_report(self):
        findings = [
            make_finding(var="x", rank=2, familiarity=3.0),
            make_finding(var="y", rank=1, familiarity=2.0),
            make_finding(var="z", pruned_by="cursor"),
            make_finding(var="w", cross=False),
        ]
        return Report(
            project="demo", findings=findings, prune_stats={"cursor": 1}, seconds=0.5
        )

    def test_reported_sorted_by_rank(self):
        report = self.make_report()
        assert [f.candidate.var for f in report.reported()] == ["y", "x"]

    def test_top(self):
        assert [f.candidate.var for f in self.make_report().top(1)] == ["y"]

    def test_pruned(self):
        assert [f.candidate.var for f in self.make_report().pruned()] == ["z"]

    def test_cross_scope_includes_pruned(self):
        assert len(self.make_report().cross_scope()) == 3

    def test_counts(self):
        counts = self.make_report().counts()
        assert counts == {"candidates": 4, "cross_scope": 3, "pruned": 1, "reported": 2}

    def test_csv_default_excludes_pruned(self):
        text = self.make_report().to_csv()
        assert "z" not in text and "y" in text

    def test_csv_include_pruned(self):
        text = self.make_report().to_csv(include_pruned=True)
        assert "cursor" in text

    def test_csv_to_file(self, tmp_path):
        path = tmp_path / "r.csv"
        self.make_report().to_csv(path)
        assert path.read_text().startswith("rank,")

    def test_summary(self):
        text = self.make_report().summary()
        assert "reported:      2" in text
        assert "pruned by cursor: 1" in text
        assert "0.50s" in text
