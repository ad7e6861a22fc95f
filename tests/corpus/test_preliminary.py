"""Tests for the §3.1 preliminary-study corpus and its experiment."""

import pytest

from repro.corpus.preliminary import DAY_2019, DAY_2021, generate_preliminary_corpus
from repro.core.project import Project
from repro.core.valuecheck import ValueCheck
from repro.eval import preliminary, recall


@pytest.fixture(scope="module")
def corpus():
    return generate_preliminary_corpus(scale=0.08, seed=11)


@pytest.fixture(scope="module")
def prelim_result(corpus):
    return preliminary.run(corpus)


class TestCorpusStructure:
    def test_both_snapshots_parse(self, corpus):
        for day in (DAY_2019, DAY_2021):
            rev = corpus.repo.rev_at_day(day)
            project = Project.from_repository(corpus.repo, rev=rev)
            assert project.sources
            assert all(project.module(path) is not None for path in project.sources)

    def test_entries_have_expected_fractions(self, corpus):
        bugfix = corpus.bugfix_entries()
        assert len(bugfix) / len(corpus.entries) == pytest.approx(42 / 60, abs=0.15)
        cross = corpus.cross_scope_bugs()
        assert len(cross) / max(1, len(bugfix)) == pytest.approx(39 / 42, abs=0.15)

    def test_peer_style_entries_exist(self, corpus):
        assert any(entry.peer_style for entry in corpus.entries)

    def test_deterministic(self):
        first = generate_preliminary_corpus(scale=0.05, seed=2)
        second = generate_preliminary_corpus(scale=0.05, seed=2)
        assert [c.commit_id for c in first.repo.commits] == [
            c.commit_id for c in second.repo.commits
        ]


class TestDifferentialExperiment:
    def test_differential_finds_planted_entries(self, corpus, prelim_result):
        assert prelim_result.total_differential >= len(corpus.entries)

    def test_sampled_subset(self, prelim_result):
        assert prelim_result.sampled <= prelim_result.total_differential
        assert prelim_result.bug_related <= prelim_result.sampled
        assert prelim_result.cross_scope <= prelim_result.bug_related

    def test_majority_of_bugfix_cases_cross_scope(self, prelim_result):
        if prelim_result.bug_related:
            assert prelim_result.cross_scope / prelim_result.bug_related > 0.7

    def test_render(self, prelim_result):
        assert "2019 vs 2021" in prelim_result.render()


class TestRecallExperiment:
    def test_recall_high_with_peer_misses(self, corpus, prelim_result):
        result = recall.run(corpus, prelim_result)
        assert result.known_bugs > 0
        assert result.recall > 0.85
        # every miss must be explained by peer-definition pruning
        for key in result.missed_keys:
            assert result.missed_pruned_by[key] == "peer_definition"

    def test_peer_style_bug_is_the_miss(self, corpus, prelim_result):
        result = recall.run(corpus, prelim_result)
        peer_keys = {entry.join_key for entry in corpus.entries if entry.peer_style}
        for key in result.missed_keys:
            assert key in peer_keys
