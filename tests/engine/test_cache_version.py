"""ANALYSIS_VERSION must invalidate content-addressed cache entries.

The cache key hashes an analysis-version stamp alongside path, build
config and source text.  If detection semantics change (a version bump)
while a cache is still warm — the analysis service restarting with new
code but the old in-process cache, or a future on-disk cache — every
stale entry must miss and the module must be re-analysed.  Nothing else
guards against serving results computed by older analysis code.
"""

import pytest

from repro.core.project import Project
from repro.engine import AnalysisEngine, ResultCache, module_key

import repro.engine.cache as cache_module

SOURCES = {
    "a.c": "int f(void)\n{\n    int dead;\n    dead = 1;\n    return 0;\n}\n",
    "b.c": "int g(void)\n{\n    return 2;\n}\n",
}


@pytest.fixture
def project():
    return Project.from_sources(dict(SOURCES))


class TestModuleKey:
    def test_version_is_part_of_the_key(self, monkeypatch):
        before = module_key("a.c", SOURCES["a.c"], ())
        monkeypatch.setattr(cache_module, "ANALYSIS_VERSION", "engine-next")
        after = module_key("a.c", SOURCES["a.c"], ())
        assert before != after

    def test_key_stable_within_a_version(self):
        assert module_key("a.c", SOURCES["a.c"], ()) == module_key(
            "a.c", SOURCES["a.c"], ()
        )


class TestVersionBumpInvalidation:
    def test_bump_forces_full_reanalysis(self, project, monkeypatch):
        cache = ResultCache()
        engine = AnalysisEngine(cache=cache)
        warm = engine.run(project)
        assert warm.stats.cache_misses == len(SOURCES)

        # Same cache, same sources: everything hits.
        rerun = engine.run(project)
        assert rerun.stats.cache_hits == len(SOURCES)
        assert rerun.stats.analyzed == 0

        # "Service restart with stale cache": new analysis code (version
        # bump) finds the old entries unusable and re-analyses everything.
        monkeypatch.setattr(cache_module, "ANALYSIS_VERSION", "engine-bumped")
        bumped = engine.run(project)
        assert bumped.stats.cache_hits == 0
        assert bumped.stats.cache_misses == len(SOURCES)
        assert bumped.stats.analyzed == len(SOURCES)

    def test_results_identical_across_the_bump(self, project, monkeypatch):
        cache = ResultCache()
        engine = AnalysisEngine(cache=cache)
        before = engine.run(project)
        monkeypatch.setattr(cache_module, "ANALYSIS_VERSION", "engine-bumped")
        after = engine.run(project)
        assert [c.key for c in before.candidates] == [c.key for c in after.candidates]

    def test_reverting_the_version_restores_hits(self, project, monkeypatch):
        cache = ResultCache()
        engine = AnalysisEngine(cache=cache)
        engine.run(project)
        monkeypatch.setattr(cache_module, "ANALYSIS_VERSION", "engine-bumped")
        engine.run(project)
        monkeypatch.undo()
        restored = engine.run(project)
        # The original entries are still under their old-version keys.
        assert restored.stats.cache_hits == len(SOURCES)


class TestEngine6Bump:
    """Increment candidates carry their same-delta store count (cursor
    pruning reads no IR), so entries cached under engine-5 — whose
    candidates lack the count — must not replay under engine-6."""

    def test_current_version_is_engine_6(self):
        assert cache_module.ANALYSIS_VERSION == "engine-6"

    def test_engine5_entries_miss_under_engine6(self, project, monkeypatch):
        cache = ResultCache()
        engine = AnalysisEngine(cache=cache)
        monkeypatch.setattr(cache_module, "ANALYSIS_VERSION", "engine-5")
        engine.run(project)  # a cache warmed by the previous release
        monkeypatch.undo()
        current = engine.run(project)
        assert current.stats.cache_hits == 0
        assert current.stats.cache_misses == len(SOURCES)
        assert current.stats.analyzed == len(SOURCES)


class TestRuleSetInvalidation:
    """Changing the enabled rule set must re-analyse: the selection is
    part of the content address, so an unused-definitions-only run cannot
    replay entries produced with the semantic packs enabled (and vice
    versa)."""

    def test_rule_set_is_part_of_the_key(self):
        default = module_key("a.c", SOURCES["a.c"], (), rules=("unused_definitions",))
        all_packs = module_key(
            "a.c",
            SOURCES["a.c"],
            (),
            rules=("unused_definitions", "use_after_free", "resource_leak"),
        )
        assert default != all_packs

    def test_explicit_default_shares_entries_with_none(self, project):
        # Engines normalise `rules=None` through the registry, so a
        # default engine and one naming every pack share cache entries.
        from repro.rules import DEFAULT_RULES

        cache = ResultCache()
        AnalysisEngine(cache=cache).run(project)
        explicit = AnalysisEngine(cache=cache, rules=DEFAULT_RULES).run(project)
        assert explicit.stats.cache_hits == len(SOURCES)

    def test_changed_rule_set_misses(self, project):
        cache = ResultCache()
        AnalysisEngine(cache=cache).run(project)  # all packs (default)
        narrowed = AnalysisEngine(cache=cache, rules=("unused_definitions",)).run(
            project
        )
        assert narrowed.stats.cache_hits == 0
        assert narrowed.stats.analyzed == len(SOURCES)
