"""Each module is lowered at most once per run, and only on a cache miss.

``Project`` holds source text; IR is built by the engine's miss path (in
the process that analyses the module), by ``analyze_changes`` for the
changed texts, or by an explicit ``Project.module`` call.  The ``#if``
regions the config-dependency pruner reads come from that same lowering,
so each lowered text is preprocessed once and a cache hit preprocesses
nothing.  These tests count preprocessings, lowerings and tokenisations
per path: in this process by wrapping the frontend's entry points, in
process-pool workers from the ``frontend.preprocess`` and ``ir.lower``
spans each ``ModuleResult`` ships back.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

import repro.frontend.parser as parser_module
import repro.frontend.preprocessor as preprocessor_module
import repro.ir.builder as builder_module
from repro import obs
from repro.core.incremental import IncrementalAnalyzer
from repro.core.project import Project
from repro.core.valuecheck import ValueCheckConfig, rank, settle
from repro.corpus import generate_app
from repro.engine import AnalysisEngine, ResultCache
from repro.service import AnalysisService, ServiceConfig

CONFIG = ValueCheckConfig(use_authorship=False, module_cache=False)


@pytest.fixture(scope="module")
def sources() -> dict[str, str]:
    # Holds a config-dependency and a cursor candidate (nfs-ganesha's
    # §5.1 and §5.2 shapes), so both IR-free pruners are exercised.
    return dict(generate_app("nfs-ganesha", scale=0.05, seed=7).project().sources)


@pytest.fixture
def frontend(monkeypatch):
    """Per-path counts of this process's preprocessings, lowerings and
    tokenisations."""
    counts = {"preprocessed": Counter(), "lowered": Counter(), "tokenized": Counter()}
    preprocess = preprocessor_module.preprocess
    lower_unit = builder_module.lower_unit
    tokenize = parser_module.tokenize

    def counting_preprocess(text, filename="<memory>", config=None):
        counts["preprocessed"][filename] += 1
        return preprocess(text, filename=filename, config=config)

    def counting_lower_unit(unit):
        counts["lowered"][unit.filename] += 1
        return lower_unit(unit)

    def counting_tokenize(text, filename="<memory>"):
        counts["tokenized"][filename] += 1
        return tokenize(text, filename=filename)

    # Every module global that binds preprocess, so no caller goes uncounted.
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "preprocess", None) is preprocess:
            monkeypatch.setattr(module, "preprocess", counting_preprocess)
    monkeypatch.setattr(builder_module, "lower_unit", counting_lower_unit)
    monkeypatch.setattr(parser_module, "tokenize", counting_tokenize)
    return counts


def _worker_spans(run, name: str) -> dict[str, int]:
    return {
        path: sum(span.name == name for span in result.spans)
        for path, result in run.by_path.items()
    }


def test_building_a_project_lowers_nothing(sources, frontend):
    project = Project.from_sources(sources)
    assert project.loc() > 0
    assert not any(frontend.values())


def test_cold_serial_analyse_lowers_every_module_once(sources, frontend):
    project = Project.from_sources(sources)
    run = AnalysisEngine(cache=None).run(project)
    rank(project, settle(project, run.candidates, CONFIG), CONFIG)
    assert frontend["lowered"] == Counter(dict.fromkeys(sources, 1))
    assert frontend["preprocessed"] == Counter(dict.fromkeys(sources, 1))


def test_cold_process_analyse_lowers_only_in_the_workers(sources, frontend):
    project = Project.from_sources(sources)
    run = AnalysisEngine(executor="process", workers=2, cache=None).run(project)
    rank(project, settle(project, run.candidates, CONFIG), CONFIG)
    assert not frontend["lowered"] and not frontend["preprocessed"]
    assert _worker_spans(run, "ir.lower") == dict.fromkeys(sources, 1)
    assert _worker_spans(run, "frontend.preprocess") == dict.fromkeys(sources, 1)


def test_analyze_changes_lowers_only_the_changed_modules(sources, frontend):
    analyzer = IncrementalAnalyzer(Project.from_sources(sources), config=CONFIG)
    changed = sorted(sources)[:2]
    edits = {
        path: sources[path] + f"\nint lowered_once_{i}(void)\n{{\n    return {i};\n}}\n"
        for i, path in enumerate(changed)
    }
    for counts in frontend.values():
        counts.clear()
    analyzer.analyze_changes(edits)
    assert frontend["lowered"] == Counter(dict.fromkeys(changed, 1))
    assert frontend["preprocessed"] == Counter(dict.fromkeys(changed, 1))


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
        for counts in frontend.values():
            counts.clear()
        reopened = request("open_project", project_id="a", sources=sources)
        assert reopened["evicted"] == ["b"]
        again = analyze()
    finally:
        service.shutdown()
    assert not any(frontend.values())
    assert again == first


def _config_dependency_verdicts(project, engine):
    provenance = obs.ProvenanceLog()
    run = engine.run(project, provenance=provenance)
    settle(project, run.candidates, CONFIG, provenance=provenance)
    verdicts = {
        record.key: [v.as_dict() for v in record.verdicts if v.pruner == "config_dependency"]
        for record in provenance.records()
    }
    return run, verdicts


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_cache_hit_in_a_fresh_project_decides_config_dependency_like_a_cold_run(
    sources, frontend, executor
):
    engine = AnalysisEngine(executor=executor, workers=2, cache=ResultCache())
    cold_run, cold = _config_dependency_verdicts(Project.from_sources(sources), engine)
    assert cold_run.stats.cache_misses == len(sources)
    for counts in frontend.values():
        counts.clear()
    warm_run, warm = _config_dependency_verdicts(Project.from_sources(sources), engine)
    assert warm_run.stats.cache_hits == len(sources)
    assert not any(frontend.values())
    assert warm == cold
    pruned = [v for verdicts in cold.values() for v in verdicts if v["pruned"]]
    assert pruned and all("use_line" in verdict["evidence"] for verdict in pruned)
