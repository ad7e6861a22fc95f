"""Each module is lowered at most once per run, and only on a cache miss.

``Project`` holds source text; IR is built by the engine's miss path (in
the process that analyses the module), by ``analyze_changes`` for the
changed texts, or by an explicit ``Project.module`` call.  These tests
count lowerings and tokenisations per path: in this process by wrapping
the frontend's entry points, in process-pool workers from the
``ir.lower`` spans each ``ModuleResult`` ships back.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.frontend.parser as parser_module
import repro.ir.builder as builder_module
from repro.core.incremental import IncrementalAnalyzer
from repro.core.project import Project
from repro.core.valuecheck import ValueCheckConfig, rank, settle
from repro.corpus import generate_app
from repro.engine import AnalysisEngine
from repro.service import AnalysisService, ServiceConfig

CONFIG = ValueCheckConfig(use_authorship=False, module_cache=False)


@pytest.fixture(scope="module")
def sources() -> dict[str, str]:
    # Holds a config-dependency and a cursor candidate (nfs-ganesha's
    # §5.1 and §5.2 shapes), so both IR-free pruners are exercised.
    return dict(generate_app("nfs-ganesha", scale=0.05, seed=7).project().sources)


@pytest.fixture
def frontend(monkeypatch):
    """Per-path counts of this process's lowerings and tokenisations."""
    counts = {"lowered": Counter(), "tokenized": Counter()}
    lower_unit = builder_module.lower_unit
    tokenize = parser_module.tokenize

    def counting_lower_unit(unit):
        counts["lowered"][unit.filename] += 1
        return lower_unit(unit)

    def counting_tokenize(text, filename="<memory>"):
        counts["tokenized"][filename] += 1
        return tokenize(text, filename=filename)

    monkeypatch.setattr(builder_module, "lower_unit", counting_lower_unit)
    monkeypatch.setattr(parser_module, "tokenize", counting_tokenize)
    return counts


def test_building_a_project_lowers_nothing(sources, frontend):
    project = Project.from_sources(sources)
    assert project.loc() > 0
    assert not frontend["lowered"] and not frontend["tokenized"]


def test_cold_serial_analyse_lowers_every_module_once(sources, frontend):
    project = Project.from_sources(sources)
    run = AnalysisEngine(cache=None).run(project)
    rank(project, settle(project, run.candidates, CONFIG), CONFIG)
    assert frontend["lowered"] == Counter(dict.fromkeys(sources, 1))


def test_cold_process_analyse_lowers_only_in_the_workers(sources, frontend):
    project = Project.from_sources(sources)
    run = AnalysisEngine(executor="process", workers=2, cache=None).run(project)
    rank(project, settle(project, run.candidates, CONFIG), CONFIG)
    assert not frontend["lowered"]
    in_workers = {
        path: sum(span.name == "ir.lower" for span in result.spans)
        for path, result in run.by_path.items()
    }
    assert in_workers == dict.fromkeys(sources, 1)


def test_analyze_changes_lowers_only_the_changed_modules(sources, frontend):
    analyzer = IncrementalAnalyzer(Project.from_sources(sources), config=CONFIG)
    changed = sorted(sources)[:2]
    edits = {
        path: sources[path] + f"\nint lowered_once_{i}(void)\n{{\n    return {i};\n}}\n"
        for i, path in enumerate(changed)
    }
    frontend["lowered"].clear()
    analyzer.analyze_changes(edits)
    assert frontend["lowered"] == Counter(dict.fromkeys(changed, 1))


def test_all_hit_reopen_parses_nothing(sources, frontend):
    other = dict(generate_app("nfs-ganesha", scale=0.05, seed=8).project().sources)
    service = AnalysisService(ServiceConfig(workers=1, max_sessions=1)).start()
    try:

        def request(kind: str, **params) -> dict:
            response = service.submit({"id": 1, "type": kind, "params": params})
            assert response["ok"], response
            return response["result"]

        def analyze() -> dict:
            result = request("analyze", project_id="a", top=1000)
            return {key: result[key] for key in ("counts", "prune_stats", "findings")}

        request("open_project", project_id="a", sources=sources)
        first = analyze()
        assert first["prune_stats"]["cursor"] >= 1
        assert first["prune_stats"]["config_dependency"] >= 1
        assert request("open_project", project_id="b", sources=other)["evicted"] == ["a"]
        frontend["lowered"].clear()
        frontend["tokenized"].clear()
        reopened = request("open_project", project_id="a", sources=sources)
        assert reopened["evicted"] == ["b"]
        again = analyze()
    finally:
        service.shutdown()
    assert not frontend["lowered"] and not frontend["tokenized"]
    assert again == first
