"""Micro-benchmarks of the core analyses (proper multi-round timing).

Unlike the table/figure regenerations (which run once and print rows),
these measure the hot paths with pytest-benchmark's statistics: the full
per-project pipeline, per-module detection, and the authorship lookup."""

import pytest

from conftest import BENCH_SEED

from repro.core import ValueCheck
from repro.core.cross_scope import CrossScopeResolver
from repro.core.detector import detect_module
from repro.corpus import generate_app
from repro.engine import AnalysisEngine
from repro.pointer import analyze_module, build_value_flow


@pytest.fixture(scope="module")
def small_app():
    return generate_app("nfs-ganesha", scale=0.1, seed=BENCH_SEED)


@pytest.fixture(scope="module")
def small_project(small_app):
    project = small_app.project()
    # Warm the engine's module cache and the project's per-module records
    # so timings isolate the measured stage.
    AnalysisEngine().run(project)
    return project


def test_full_pipeline_speed(benchmark, small_project):
    report = benchmark(lambda: ValueCheck().analyze(small_project))
    assert report.reported()


def test_detection_speed(benchmark, small_project):
    path = max(small_project.sources, key=lambda p: small_project.sources[p].count("\n"))
    module = small_project.module(path)
    andersen = analyze_module(module)
    # A fresh graph per round: it memoises the per-function solve the
    # detector reads, which is part of what this measures.
    candidates = benchmark(lambda: detect_module(module, build_value_flow(module, andersen)))
    assert isinstance(candidates, list)


def test_authorship_lookup_speed(benchmark, small_project):
    vc = ValueCheck()
    candidates = vc.detect_candidates(small_project)

    def resolve_all():
        resolver = CrossScopeResolver(small_project)
        return resolver.resolve_all(candidates)

    findings = benchmark(resolve_all)
    assert findings
