"""Integration tests for the ValueCheck facade (full pipeline) and ranking."""

import pytest

from repro.core.familiarity import DokModel
from repro.core.findings import CandidateKind
from repro.core.ranking import rank_findings
from repro.core.valuecheck import ValueCheck, ValueCheckConfig

from tests.core.helpers import (
    AUTHOR1,
    AUTHOR2,
    AUTHOR3,
    build_multifile_history,
    project_from_repo,
)

CALLEE = "int read_status(void)\n{\n    return 1;\n}\n"
BUGGY_V1 = (
    "int read_status(void);\n"
    "int handle(void)\n"
    "{\n"
    "    int ret;\n"
    "    ret = read_status();\n"
    "    if (ret) { return 1; }\n"
    "    return 0;\n"
    "}\n"
)
BUGGY_V2 = (
    "int read_status(void);\n"
    "int handle(void)\n"
    "{\n"
    "    int ret;\n"
    "    ret = read_status();\n"
    "    ret = 0;\n"
    "    if (ret) { return 1; }\n"
    "    return 0;\n"
    "}\n"
)
BENIGN = (
    "void helper(void)\n"
    "{\n"
    "    int n __attribute__((unused)) = 3;\n"
    "}\n"
)


def demo_repo():
    return build_multifile_history(
        [
            (AUTHOR1, {"callee.c": CALLEE}),
            (AUTHOR1, {"buggy.c": BUGGY_V1}),
            (AUTHOR3, {"benign.c": BENIGN}),
            (AUTHOR2, {"buggy.c": BUGGY_V2}),
        ]
    )


class TestFullPipeline:
    def test_reports_cross_scope_bug(self):
        report = ValueCheck().analyze(project_from_repo(demo_repo()))
        reported = report.reported()
        assert any(
            f.candidate.var == "ret" and f.candidate.kind is CandidateKind.OVERWRITTEN_DEF
            for f in reported
        )

    def test_hinted_candidate_pruned(self):
        report = ValueCheck().analyze(project_from_repo(demo_repo()))
        pruned_vars = {f.candidate.var for f in report.pruned()}
        # benign.c's hinted local is cross-scope? it is single-author; if it
        # never became cross-scope it is filtered before pruning instead.
        assert "n" not in {f.candidate.var for f in report.reported()}

    def test_prune_stats_present(self):
        report = ValueCheck().analyze(project_from_repo(demo_repo()))
        assert set(report.prune_stats) == {
            "config_dependency",
            "cursor",
            "unused_hints",
            "peer_definition",
        }

    def test_counts_consistent(self):
        report = ValueCheck().analyze(project_from_repo(demo_repo()))
        counts = report.counts()
        assert counts["reported"] <= counts["cross_scope"] <= counts["candidates"]
        assert counts["reported"] == counts["cross_scope"] - sum(report.prune_stats.values())

    def test_ranks_assigned_sequentially(self):
        report = ValueCheck().analyze(project_from_repo(demo_repo()))
        ranks = [f.rank for f in report.reported()]
        assert ranks == list(range(1, len(ranks) + 1))

    def test_familiarity_attached(self):
        report = ValueCheck().analyze(project_from_repo(demo_repo()))
        for finding in report.reported():
            assert finding.familiarity is not None

    def test_csv_rendering(self):
        report = ValueCheck().analyze(project_from_repo(demo_repo()))
        text = report.to_csv()
        assert text.splitlines()[0].startswith("rank,file,line")
        assert "ret" in text

    def test_summary_mentions_counts(self):
        report = ValueCheck().analyze(project_from_repo(demo_repo()))
        assert "reported:" in report.summary()

    def test_deterministic(self):
        first = ValueCheck().analyze(project_from_repo(demo_repo()))
        second = ValueCheck().analyze(project_from_repo(demo_repo()))
        assert [f.key for f in first.reported()] == [f.key for f in second.reported()]


class TestAblations:
    def test_without_authorship_reports_more(self):
        repo = demo_repo()
        full = ValueCheck().analyze(project_from_repo(repo))
        ablated = ValueCheck(ValueCheckConfig(use_authorship=False)).analyze(project_from_repo(repo))
        assert len(ablated.reported()) >= len(full.reported())

    def test_without_pruning(self):
        repo = demo_repo()
        ablated = ValueCheck(ValueCheckConfig(pruners=frozenset())).analyze(project_from_repo(repo))
        assert sum(ablated.prune_stats.values()) == 0

    def test_without_familiarity_keeps_detection_order(self):
        repo = demo_repo()
        report = ValueCheck(ValueCheckConfig(use_familiarity=False)).analyze(project_from_repo(repo))
        reported = report.reported()
        assert [f.rank for f in reported] == list(range(1, len(reported) + 1))
        assert all(f.familiarity is None for f in reported)

    def test_factor_ablation_changes_config(self):
        config = ValueCheckConfig().without_factor("DL")
        assert config.dok_weights.alpha_dl == 0.0


class TestRanking:
    def test_low_familiarity_ranks_first(self):
        repo = demo_repo()
        project = project_from_repo(repo)
        report = ValueCheck().analyze(project)
        reported = report.reported()
        familiarity_values = [f.familiarity for f in reported]
        assert familiarity_values == sorted(familiarity_values)

    def test_rank_findings_passthrough_for_unreported(self):
        repo = demo_repo()
        project = project_from_repo(repo)
        vc = ValueCheck()
        candidates = vc.detect_candidates(project)
        findings = project.resolver(None).resolve_all(candidates)
        model = DokModel(repo)
        ranked = rank_findings(findings, model=model)
        unreported = [f for f in ranked if not f.is_reported]
        assert all(f.rank is None for f in unreported)
