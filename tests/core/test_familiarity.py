"""Unit tests for the DOK and EA familiarity models + weight calibration."""

import math

import pytest

from repro.core.calibration import calibrate, collect_survey, fit_dok_weights
from repro.core.familiarity import DokModel, DokWeights, EaModel, classify_commit_message
from repro.vcs.objects import Author
from repro.vcs.repository import Repository

from tests.core.helpers import AUTHOR1, AUTHOR2


def repo_with_history():
    repo = Repository("fam")
    repo.commit(AUTHOR1, "create core.c", {"core.c": "a\nb\nc"}, day=0)
    repo.commit(AUTHOR1, "extend core.c", {"core.c": "a\nb\nc\nd"}, day=10)
    repo.commit(AUTHOR2, "touch core.c", {"core.c": "a\nb\nc\nd\ne"}, day=20)
    repo.commit(AUTHOR2, "create util.c", {"util.c": "u"}, day=30)
    return repo


class TestDokModel:
    def test_creator_scores_higher_than_stranger(self):
        repo = repo_with_history()
        model = DokModel(repo)
        assert model.score(AUTHOR1, "core.c") > model.score(AUTHOR2, "core.c")

    def test_formula_matches_paper(self):
        repo = repo_with_history()
        model = DokModel(repo)
        # author1 on core.c: FA=1, DL=2, AC=1
        expected = 3.1 + 1.2 * 1 + 0.2 * 2 - 0.5 * math.log1p(1)
        assert model.score(AUTHOR1, "core.c") == pytest.approx(expected)

    def test_stranger_formula(self):
        repo = repo_with_history()
        model = DokModel(repo)
        # author2 on core.c: FA=0, DL=1, AC=2
        expected = 3.1 + 0.2 * 1 - 0.5 * math.log1p(2)
        assert model.score(AUTHOR2, "core.c") == pytest.approx(expected)

    def test_unknown_author_gets_baseline(self):
        repo = repo_with_history()
        model = DokModel(repo)
        nobody = Author("nobody")
        expected = 3.1 - 0.5 * math.log1p(3)
        assert model.score(nobody, "core.c") == pytest.approx(expected)

    def test_score_by_name_string(self):
        repo = repo_with_history()
        model = DokModel(repo)
        assert model.score("author1", "core.c") == model.score(AUTHOR1, "core.c")

    def test_score_by_name_sees_an_author_added_later(self):
        repo = repo_with_history()
        DokModel(repo).score("author1", "core.c")
        newcomer = Author("author3", "author3@example.com")
        repo.commit(newcomer, "create new.c", {"new.c": "n"}, day=40)
        assert DokModel(repo).breakdown("author3", "new.c")["fa"] == 1
        assert DokModel(repo).score("author3", "new.c") == DokModel(repo).score(newcomer, "new.c")

    def test_until_rev_limits_history(self):
        repo = repo_with_history()
        model = DokModel(repo)
        early = model.score(AUTHOR2, "core.c", until_rev=1)
        late = model.score(AUTHOR2, "core.c")
        assert early < late  # author2 had not touched core.c yet at rev 1

    def test_weights_without_factor(self):
        weights = DokWeights().without("AC")
        assert weights.alpha_ac == 0.0
        assert weights.alpha_fa == 1.2
        with pytest.raises(KeyError):
            DokWeights().without("XX")

    def test_ablated_model_differs(self):
        repo = repo_with_history()
        full = DokModel(repo)
        no_ac = DokModel(repo, weights=DokWeights().without("AC"))
        assert full.score(AUTHOR2, "core.c") != no_ac.score(AUTHOR2, "core.c")


class TestEaModel:
    def test_commit_classification(self):
        assert classify_commit_message("Fix NULL deref in parser") == "fix"
        assert classify_commit_message("refactor: split helpers") == "refactor"
        assert classify_commit_message("add TLS 1.3 support") == "new"

    def test_new_work_weighs_more_than_fixes(self):
        repo = Repository("ea")
        repo.commit(AUTHOR1, "add scheduler", {"s.c": "a"}, day=0)
        repo.commit(AUTHOR2, "fix scheduler bug", {"s.c": "a\nb"}, day=1)
        model = EaModel(repo)
        assert model.score(AUTHOR1, "s.c") > model.score(AUTHOR2, "s.c")

    def test_accumulates_per_commit(self):
        repo = Repository("ea")
        repo.commit(AUTHOR1, "add x", {"s.c": "a"}, day=0)
        repo.commit(AUTHOR1, "add y", {"s.c": "a\nb"}, day=1)
        model = EaModel(repo)
        assert model.score(AUTHOR1, "s.c") == pytest.approx(2.0)

    def test_stranger_scores_zero(self):
        repo = repo_with_history()
        assert EaModel(repo).score("nobody", "core.c") == 0.0


class TestCalibration:
    def _survey_repo(self, files=30):
        """History whose (FA, DL, AC) triples vary enough to identify all
        four weights: some editors deliver repeatedly to the same file."""
        repo = Repository("cal")
        day = 0
        authors = [Author(f"dev{i}") for i in range(6)]
        for index in range(files):
            creator = authors[index % len(authors)]
            path = f"f{index}.c"
            repo.commit(creator, f"create {path}", {path: "l1\nl2\nl3"}, day=day)
            day += 1
            editor = authors[(index + 1) % len(authors)]
            body = "l1\nl2\nl3"
            # The same editor delivers a varying number of times (1-3), so
            # the DL column is not collinear with the intercept.
            for round_ in range(1 + index % 3):
                body += "\nmore%d" % round_
                repo.commit(editor, f"edit {path} {round_}", {path: body}, day=day)
                day += 1
        return repo

    def test_survey_collects_requested_samples(self):
        repo = self._survey_repo()
        samples = collect_survey(repo, max_samples=40, seed=1)
        assert len(samples) == 40
        assert all(1.0 <= sample.rating <= 5.0 for sample in samples)

    def test_fit_recovers_weights(self):
        repo = self._survey_repo()
        samples = collect_survey(repo, max_samples=40, noise=0.1, seed=2)
        fitted = fit_dok_weights(samples)
        true = DokWeights()
        assert fitted.alpha0 == pytest.approx(true.alpha0, abs=0.6)
        assert fitted.alpha_fa == pytest.approx(true.alpha_fa, abs=0.6)
        assert fitted.alpha_dl == pytest.approx(true.alpha_dl, abs=0.4)
        assert fitted.alpha_ac == pytest.approx(true.alpha_ac, abs=0.6)

    def test_fit_requires_enough_samples(self):
        with pytest.raises(ValueError):
            fit_dok_weights([])

    def test_calibrate_end_to_end(self):
        repo = self._survey_repo()
        weights = calibrate(repo, seed=3, noise=0.2)
        assert 1.0 < weights.alpha0 < 5.0

    def test_deterministic_given_seed(self):
        repo = self._survey_repo()
        first = collect_survey(repo, seed=7)
        second = collect_survey(repo, seed=7)
        assert [s.rating for s in first] == [s.rating for s in second]
