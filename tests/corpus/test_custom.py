"""Tests for custom profile construction and generation."""

import pytest

from repro.core import ValueCheck
from repro.corpus.custom import generate_custom, make_profile
from repro.errors import CorpusError
from repro.eval.metrics import real_bug_count


class TestMakeProfile:
    def test_defaults(self):
        profile = make_profile("webserver")
        assert profile.name == "webserver"
        assert profile.counts.bugs == 20

    def test_rejects_empty_name(self):
        with pytest.raises(CorpusError):
            make_profile("")

    def test_rejects_unknown_domain(self):
        with pytest.raises(CorpusError):
            make_profile("x", domains=("blockchain",))

    def test_rejects_negative_counts(self):
        with pytest.raises(CorpusError):
            make_profile("x", bugs=-1)

    def test_rejects_bad_fraction(self):
        with pytest.raises(CorpusError):
            make_profile("x", same_author_newcomer_fraction=2.0)

    def test_kernel_flag(self):
        profile = make_profile("mykernel", is_kernel=True)
        assert profile.is_kernel


class TestGenerateCustom:
    @pytest.fixture(scope="class")
    def app(self):
        profile = make_profile(
            "webserver",
            bugs=6,
            fp_minor=2,
            hints=8,
            cursor=2,
            config_dep=1,
            peer_sites=14,
            same_author=10,
            filler=6,
            domains=("network", "security"),
        )
        return generate_custom(profile, seed=9)

    def test_generates_and_parses(self, app):
        project = app.project()
        assert project.sources
        assert all(project.module(path) is not None for path in project.sources)

    def test_pipeline_finds_planted_bugs(self, app):
        report = ValueCheck().analyze(app.project())
        reported = report.reported()
        expected = [e for e in app.ledger.bugs() if e.expected_pruner is None]
        assert real_bug_count(app.ledger, reported) == len(expected)

    def test_domains_respected(self, app):
        for path in app.repo.files():
            if "/" in path and not path.startswith(("lib/", "include/")) and path != "RELEASE":
                assert path.split("/")[0] in ("network", "security")

    def test_kernel_marker_plantable(self):
        profile = make_profile("mini-kernel", bugs=2, is_kernel=True, filler=2)
        app = generate_custom(profile, seed=3)
        assert any("KBUILD_MODNAME" in text for text in app.repo.snapshot_at().values())
