"""Engine tests: executor equivalence, cache correctness, eviction
granularity, and incremental-replay cache accounting."""

from __future__ import annotations

import pytest

from repro.core.incremental import IncrementalAnalyzer
from repro.core.project import Project
from repro.core.valuecheck import ValueCheck, ValueCheckConfig
from repro.corpus.generator import generate_app
from repro.engine import (
    DEFAULT_CACHE,
    EXECUTOR_KINDS,
    AnalysisEngine,
    ResultCache,
    make_executor,
)
from repro.errors import ReproError
from repro.pointer.andersen import analyze_module

from tests.core.helpers import AUTHOR1, AUTHOR2, analyzed, build_multifile_history

SOURCES = {
    "lib.c": "int helper(int x)\n{\n    if (x) { return 1; }\n    return 0;\n}\n",
    "app.c": (
        "int helper(int x);\n"
        "void entry(void)\n"
        "{\n"
        "    int r;\n"
        "    r = helper(1);\n"
        "    if (r) { return; }\n"
        "    helper(2);\n"
        "}\n"
    ),
    "other.c": "void idle(void)\n{\n    int n;\n    n = 3;\n}\n",
}


@pytest.fixture(scope="module")
def corpus_app():
    return generate_app("nfs-ganesha", scale=0.05, seed=11)


def finding_rows(report):
    """Everything the acceptance criterion calls bit-identical: files,
    lines, order after ranking."""
    return [
        (f.rank, f.candidate.file, f.candidate.line, f.candidate.function,
         f.candidate.var, f.candidate.kind.value, f.pruned_by)
        for f in report.findings
    ]


class TestExecutorEquivalence:
    @pytest.mark.parametrize("executor", EXECUTOR_KINDS)
    def test_identical_findings_on_corpus_app(self, corpus_app, executor):
        baseline = ValueCheck(
            ValueCheckConfig(executor="serial", module_cache=False)
        ).analyze(corpus_app.project())
        report = ValueCheck(
            ValueCheckConfig(executor=executor, workers=4, module_cache=False)
        ).analyze(corpus_app.project())
        assert finding_rows(report) == finding_rows(baseline)
        assert report.engine_stats.executor == executor

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            make_executor("rayon")
        with pytest.raises(ValueError, match="unknown executor 'thread'"):
            make_executor("thread")

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_workers_rejected(self, kind, workers):
        with pytest.raises(ValueError, match="at least 1"):
            make_executor(kind, workers=workers)

    def test_executors_preserve_input_order(self):
        for kind in EXECUTOR_KINDS:
            executor = make_executor(kind, workers=4)
            assert executor.map(_double, list(range(20))) == [2 * n for n in range(20)]


def _double(n: int) -> int:
    return 2 * n


class TestModuleCache:
    def test_second_run_all_hits(self):
        cache = ResultCache()
        engine = AnalysisEngine(cache=cache)
        project = Project.from_sources(dict(SOURCES))
        first = engine.run(project)
        assert first.stats.cache_misses == len(SOURCES)
        again = engine.run(Project.from_sources(dict(SOURCES)))
        assert again.stats.cache_hits == len(SOURCES)
        assert again.stats.analyzed == 0
        assert again.candidates == first.candidates

    def test_content_change_misses_only_changed_module(self):
        cache = ResultCache()
        engine = AnalysisEngine(cache=cache)
        engine.run(Project.from_sources(dict(SOURCES)))
        changed = dict(SOURCES)
        changed["other.c"] = "void idle(void)\n{\n    int n;\n    n = 4;\n}\n"
        rerun = engine.run(Project.from_sources(changed))
        assert rerun.stats.cache_hits == len(SOURCES) - 1
        assert rerun.stats.cache_misses == 1

    def test_build_config_part_of_key(self):
        cache = ResultCache()
        engine = AnalysisEngine(cache=cache)
        engine.run(Project.from_sources(dict(SOURCES)))
        reconfigured = engine.run(
            Project.from_sources(dict(SOURCES), build_config={"DEBUG"})
        )
        assert reconfigured.stats.cache_hits == 0

    def test_report_exposes_counters_and_zero_reanalysis(self):
        """Acceptance: re-running analyze on an unchanged project performs
        zero module re-analyses, visible through Report.engine_stats."""
        repo = build_multifile_history([(AUTHOR1, dict(SOURCES))])
        project = Project.from_repository(repo)
        first = ValueCheck().analyze(project)
        assert first.engine_stats is not None
        second = ValueCheck().analyze(Project.from_repository(repo))
        assert second.engine_stats.cache_hits == len(SOURCES)
        assert second.engine_stats.analyzed == 0
        assert finding_rows(second) == finding_rows(first)

    def test_cache_disabled_recomputes(self):
        engine = AnalysisEngine(cache=None)
        project = Project.from_sources(dict(SOURCES))
        engine.run(project)
        rerun = engine.run(project)
        assert rerun.stats.cache_hits == 0
        assert rerun.stats.analyzed == len(SOURCES)

    def test_lru_eviction_bounded(self):
        cache = ResultCache(capacity=2)
        engine = AnalysisEngine(cache=cache)
        engine.run(Project.from_sources(dict(SOURCES)))
        assert len(cache) == 2


class TestInvalidation:
    def test_invalidate_evicts_exactly_touched_modules(self):
        project = analyzed(Project.from_sources(dict(SOURCES)))
        kept = {path: project.contribution(path) for path in SOURCES if path != "app.c"}
        project.invalidate({"app.c"})
        with pytest.raises(ReproError):
            project.contribution("app.c")
        assert all(project.contribution(path) is kept[path] for path in kept)
        analyzed(project, paths=["app.c"])
        assert project.index == project._build_index()

    def test_invalidate_all(self):
        project = analyzed(Project.from_sources(dict(SOURCES)))
        _ = project.index
        project.invalidate()
        for path in SOURCES:
            with pytest.raises(ReproError):
                project.contribution(path)


class TestRevKeyedCaches:
    def test_resolver_reused_per_rev(self):
        repo = build_multifile_history([(AUTHOR1, dict(SOURCES))])
        project = analyzed(Project.from_repository(repo))
        assert project.resolver(None) is project.resolver(None)

    def test_resolver_dropped_on_invalidate(self):
        repo = build_multifile_history([(AUTHOR1, dict(SOURCES))])
        project = analyzed(Project.from_repository(repo))
        stale = project.resolver(None)
        project.invalidate({"app.c"})
        analyzed(project, paths=["app.c"])
        assert project.resolver(None) is not stale

    def test_blame_survives_invalidate(self):
        repo = build_multifile_history([(AUTHOR1, dict(SOURCES))])
        project = Project.from_repository(repo)
        blame = project.blame_index(None)
        project.invalidate({"app.c"})
        assert project.blame_index(None) is blame


BUGGY_APP = (
    "int helper(int x);\n"
    "void entry(void)\n"
    "{\n"
    "    int r;\n"
    "    r = helper(1);\n"
    "    r = 0;\n"
    "    if (r) { return; }\n"
    "    helper(2);\n"
    "}\n"
)


class TestIncrementalReplayCaching:
    def test_replay_reanalyses_only_diff_touched_modules(self):
        repo = build_multifile_history(
            [
                (AUTHOR1, dict(SOURCES)),
                (AUTHOR2, {"app.c": BUGGY_APP}),
            ]
        )
        analyzer = IncrementalAnalyzer(Project.from_repository(repo, rev=0), rev=0)
        warm = {path: analyzer.project.contribution(path) for path in SOURCES}
        before = DEFAULT_CACHE.stats()
        analyzer.replay()
        delta = DEFAULT_CACHE.stats()
        # Only the new content of app.c was a real re-analysis; every
        # other consulted module came from the cache.
        assert delta.misses - before.misses == 1
        assert delta.hits - before.hits >= 0
        # Untouched modules kept their warm per-project results too.
        for path in ("lib.c", "other.c"):
            assert analyzer.project.contribution(path) is warm[path]

    def test_reverting_commit_hits_cache(self):
        original = dict(SOURCES)
        repo = build_multifile_history(
            [
                (AUTHOR1, dict(original)),
                (AUTHOR2, {"app.c": BUGGY_APP}),
                (AUTHOR1, {"app.c": original["app.c"]}),  # revert
            ]
        )
        analyzer = IncrementalAnalyzer(Project.from_repository(repo, rev=0), rev=0)
        analyzer.replay()  # introduces the bug: one miss
        before = DEFAULT_CACHE.stats()
        analyzer.replay()  # revert: content was seen at warm-up
        delta = DEFAULT_CACHE.stats()
        assert delta.misses - before.misses == 0


class TestConvergence:
    def test_converged_on_corpus_app(self, corpus_app):
        """Acceptance: AndersenResult.converged is True on corpus apps."""
        project = corpus_app.project()
        for path in project.sources:
            assert analyze_module(project.module(path)).converged
        report = ValueCheck(ValueCheckConfig(module_cache=False)).analyze(project)
        assert report.engine_stats.non_converged == ()

    def test_limit_hit_is_recorded_not_warned(self, monkeypatch, recwarn):
        # Shrink the iteration budget instead of crafting a pathological
        # module: any real propagation then trips the limit.  The event is
        # *recorded* (converged flag + metrics + Report), never a warning.
        import repro.pointer.andersen as andersen_mod
        from repro.engine.worker import analyze_lowered
        from repro.ir.builder import lower_source

        monkeypatch.setattr(andersen_mod, "ITERATION_LIMIT", 1)
        src = (
            "void f(void) { int x; int y; int *p; int *q; int *r;\n"
            "  p = &x; q = p; r = q; p = &y; }"
        )
        module = lower_source(src, filename="t.c")
        result = analyze_module(module)
        assert result.converged is False
        assert result.iterations == 1
        assert not recwarn.list

        module_result = analyze_lowered("t.c", lower_source(src, filename="t.c"))
        assert module_result.converged is False
        assert module_result.metrics["counters"]["andersen.non_converged"] == 1

        report = ValueCheck(ValueCheckConfig(use_authorship=False, module_cache=False)).analyze(
            Project.from_sources({"t.c": src})
        )
        assert report.converged is False
        assert report.engine_stats.non_converged == ("t.c",)
        assert report.metrics["counters"]["andersen.non_converged_modules"] == 1

    def test_iterations_recorded_on_convergence(self):
        from repro.ir.builder import lower_source

        src = "void f(void) { int x; int *p; p = &x; }"
        result = analyze_module(lower_source(src, filename="t.c"))
        assert result.converged is True
        assert result.iterations > 0
