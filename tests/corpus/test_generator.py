"""Tests for the synthetic corpus generator: composition, determinism,
and — crucially — that the real pipeline rediscovers exactly what was
planted."""

import collections

import pytest

from repro.core import ValueCheck
from repro.corpus import PROFILES, generate_app, scaled
from repro.errors import CorpusError

SCALE = 0.06
SEED = 3


@pytest.fixture(scope="module")
def nfs_app():
    return generate_app("nfs-ganesha", scale=SCALE, seed=SEED)


@pytest.fixture(scope="module")
def nfs_pipeline(nfs_app):
    project = nfs_app.project()
    report = ValueCheck().analyze(project)
    return nfs_app, project, report


class TestGeneration:
    def test_unknown_profile_rejected(self):
        with pytest.raises(CorpusError):
            generate_app("postgres")

    def test_deterministic(self):
        first = generate_app("openssl", scale=0.03, seed=5)
        second = generate_app("openssl", scale=0.03, seed=5)
        assert first.repo.files() == second.repo.files()
        assert [c.commit_id for c in first.repo.commits] == [
            c.commit_id for c in second.repo.commits
        ]

    def test_seed_changes_output(self):
        first = generate_app("openssl", scale=0.03, seed=5)
        second = generate_app("openssl", scale=0.03, seed=6)
        assert [c.commit_id for c in first.repo.commits] != [
            c.commit_id for c in second.repo.commits
        ]

    def test_scaled_counts_floor_at_one(self):
        profile = scaled(PROFILES["linux"], 0.001)
        assert profile.counts.config_dep == 1
        assert profile.counts.bugs == 1

    def test_ledger_matches_planted_counts(self, nfs_app):
        counts = nfs_app.ledger.counts()
        profile = scaled(PROFILES["nfs-ganesha"], SCALE)
        assert counts["hint"] == profile.counts.hints
        assert counts["cursor"] == profile.counts.cursor
        assert counts["config_dep"] == profile.counts.config_dep
        assert len(nfs_app.ledger.bugs()) >= profile.counts.bugs

    def test_kernel_marker_only_for_linux(self):
        linux = generate_app("linux", scale=0.02, seed=2)
        assert any("KBUILD_MODNAME" in text for text in linux.repo.snapshot_at().values())
        nfs = generate_app("nfs-ganesha", scale=0.02, seed=2)
        assert not any("KBUILD_MODNAME" in text for text in nfs.repo.snapshot_at().values())

    def test_head_commit_is_detection_day(self, nfs_app):
        assert nfs_app.repo.head.day == nfs_app.detection_day

    def test_all_sources_parse(self, nfs_app):
        project = nfs_app.project()
        assert len(project.sources) > 3
        # Building a Project lowers nothing; lowering each module raises
        # on any preprocess, parse or lowering error.
        assert all(project.module(path) is not None for path in project.sources)

    def test_multi_author_history(self, nfs_app):
        authors = {commit.author.name for commit in nfs_app.repo.commits}
        assert len(authors) > 5


class TestPipelineAgreement:
    """The analyses must rediscover the ledger exactly."""

    def test_every_expected_bug_reported(self, nfs_pipeline):
        app, project, report = nfs_pipeline
        reported_keys = {
            (f.candidate.file, f.candidate.function) for f in report.reported()
        }
        for entry in app.ledger.bugs():
            if entry.expected_pruner is None:
                assert (entry.file, entry.function) in reported_keys, entry

    def test_prune_attribution_matches_ledger(self, nfs_pipeline):
        app, project, report = nfs_pipeline
        for finding in report.pruned():
            entry = app.ledger.match_finding(finding)
            assert entry is not None, finding.candidate
            assert finding.pruned_by == entry.expected_pruner, entry

    def test_no_unplanted_reports(self, nfs_pipeline):
        app, project, report = nfs_pipeline
        for finding in report.reported():
            assert app.ledger.match_finding(finding) is not None, finding.candidate

    def test_cross_scope_agreement(self, nfs_pipeline):
        app, project, report = nfs_pipeline
        mismatches = []
        for finding in report.findings:
            entry = app.ledger.match_finding(finding)
            if entry is None or finding.authorship is None:
                continue
            if finding.authorship.cross_scope != entry.expected_cross_scope:
                mismatches.append((entry.category, finding.candidate.key))
        assert not mismatches

    def test_prune_stats_match_expected(self, nfs_pipeline):
        app, project, report = nfs_pipeline
        expected = collections.Counter(
            entry.expected_pruner for entry in app.ledger.entries if entry.expected_pruner
        )
        assert report.prune_stats == dict(expected)

    def test_bugs_rank_above_false_positives_on_average(self, nfs_pipeline):
        app, project, report = nfs_pipeline
        bug_ranks, fp_ranks = [], []
        for finding in report.reported():
            entry = app.ledger.match_finding(finding)
            if entry is None:
                continue
            (bug_ranks if entry.is_bug else fp_ranks).append(finding.rank)
        if bug_ranks and fp_ranks:
            assert sum(bug_ranks) / len(bug_ranks) < sum(fp_ranks) / len(fp_ranks)

    def test_clang_finds_nothing(self, nfs_pipeline):
        from repro.baselines import ClangWunused

        app, project, report = nfs_pipeline
        assert ClangWunused().analyze(project).count() == 0


class TestBugMetadata:
    def test_reported_bug_entries_have_metadata(self, nfs_app):
        # Bugs the pipeline should report carry the Figure 7 metadata;
        # pruning-false-negative plants (§8.3.4) do not need it.
        for entry in nfs_app.ledger.bugs():
            if entry.expected_pruner is not None:
                continue
            assert entry.bug_type in ("missing_check", "semantic")
            assert entry.component is not None
            assert entry.severity in ("high", "medium", "low")
            assert entry.introduced_day >= 0

    def test_bug_ages_positive(self, nfs_app):
        for entry in nfs_app.ledger.bugs():
            assert 0 < nfs_app.detection_day - entry.introduced_day < 3000
