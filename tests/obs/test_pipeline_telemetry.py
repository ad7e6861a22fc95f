"""End-to-end pipeline telemetry.

Acceptance criteria under test:

* a fully traced ``analyze()`` produces a Chrome trace-event JSON whose
  span names cover the frontend → core.rank;
* thread and process executors yield identical merged metrics
  (``deterministic_view``) for the same project;
* re-entrant ``analyze()`` calls never double-count (fresh registry per
  run);
* the per-pruner kill counters sum consistently with the report's own
  candidate accounting.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.project import Project
from repro.core.valuecheck import ValueCheck, ValueCheckConfig
from repro.obs.sinks import prune_kills
from tests.obs.oracles import deterministic_view

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
    "hint.c": "void g(void)\n{\n    int x __attribute__((unused)) = 1;\n}\n",
    "other.c": "void idle(void)\n{\n    int n;\n    n = 3;\n}\n",
}

CONFIG = dict(use_authorship=False, module_cache=False)

REQUIRED_SPANS = {
    "core.pipeline",
    "frontend.preprocess",
    "frontend.lex",
    "frontend.parse",
    "ir.lower",
    "pointer.vfg",
    "pointer.andersen",
    "engine.run",
    "rules.detect",
    "engine.contribution",
    "core.resolve",
    "core.prune",
    "core.rank",
}


def traced_analyze(**overrides):
    """Project construction + analysis under one ambient telemetry, so the
    frontend spans join the same trace as the analyze stages."""
    telemetry = obs.Telemetry.fresh()
    with obs.use(telemetry):
        project = Project.from_sources(dict(SOURCES))
        report = ValueCheck(ValueCheckConfig(**{**CONFIG, **overrides})).analyze(
            project, telemetry=telemetry
        )
    return report, telemetry


class TestTraceCoverage:
    def test_span_tree_covers_parse_to_rank(self):
        report, telemetry = traced_analyze()
        assert REQUIRED_SPANS <= telemetry.tracer.span_names()
        chrome = telemetry.tracer.to_chrome()
        names = {event["name"] for event in chrome["traceEvents"]}
        assert REQUIRED_SPANS <= names

    def test_pipeline_stages_nest_under_analyze(self):
        report, telemetry = traced_analyze()
        spans = {span.span_id: span for span in telemetry.tracer.spans()}
        analyze = next(s for s in spans.values() if s.name == "core.pipeline")
        for stage in ("engine.run", "core.resolve", "core.prune", "core.rank"):
            span = next(s for s in spans.values() if s.name == stage)
            assert span.parent_id == analyze.span_id

    def test_report_layers_sorted_by_self_time(self):
        report, telemetry = traced_analyze()
        layers = report.layer_seconds()
        assert REQUIRED_SPANS <= set(layers)
        assert list(layers.values()) == sorted(layers.values(), reverse=True)
        assert all(seconds >= 0 for seconds in layers.values())
        roots = [span for span in telemetry.tracer.spans() if span.parent_id is None]
        assert sum(layers.values()) == pytest.approx(sum(span.seconds for span in roots))


class TestExecutorMetricDeterminism:
    def _view(self, executor):
        report, _ = traced_analyze(executor=executor, workers=4)
        assert report.engine_stats.executor == executor
        return deterministic_view(report.metrics)

    @pytest.mark.parametrize("executor", ["process"])
    def test_content_metrics_match_serial(self, executor):
        serial, parallel = self._view("serial"), self._view(executor)
        # The workers gauge legitimately differs; every content metric
        # (counters, iteration histograms, kill tallies) must not.
        assert parallel["counters"] == serial["counters"]
        assert parallel["histograms"] == serial["histograms"]


class TestReentrantAnalyze:
    def test_second_run_does_not_double_count(self):
        checker = ValueCheck(ValueCheckConfig(**CONFIG))
        first = checker.analyze(Project.from_sources(dict(SOURCES)))
        second = checker.analyze(Project.from_sources(dict(SOURCES)))
        assert deterministic_view(second.metrics) == deterministic_view(first.metrics)
        assert (
            second.metrics["counters"]["detect.candidates"]
            == first.metrics["counters"]["detect.candidates"]
        )

    def test_explicit_telemetry_accumulates_deliberately(self):
        telemetry = obs.Telemetry.fresh()
        checker = ValueCheck(ValueCheckConfig(**CONFIG))
        one = checker.analyze(Project.from_sources(dict(SOURCES)), telemetry=telemetry)
        per_run = one.metrics["counters"]["detect.candidates"]
        two = checker.analyze(Project.from_sources(dict(SOURCES)), telemetry=telemetry)
        assert two.metrics["counters"]["detect.candidates"] == 2 * per_run


class TestReportConsistency:
    def test_kill_counters_reconcile_with_report_counts(self):
        report, _ = traced_analyze()
        counts = report.counts()
        kills = prune_kills(report.metrics)
        counters = report.metrics["counters"]
        assert sum(kills.values()) == counts["pruned"]
        assert kills == report.prune_stats
        assert counters["prune.examined"] == counts["cross_scope"]
        assert counters["prune.survived"] == counts["cross_scope"] - counts["pruned"]
        assert counters["detect.candidates"] == counts["candidates"]

    def test_stats_record_carries_everything(self):
        report, _ = traced_analyze()
        record = report.stats_record(report.seconds)
        assert record["converged"] is True
        assert record["counts"] == report.counts()
        assert record["prune_stats"] == report.prune_stats
        assert record["layers"] == report.layer_seconds()
        assert sum(record["layers"].values()) + record["residual"] == pytest.approx(
            record["seconds"]
        )
        assert record["metrics"]["counters"] == report.metrics["counters"]
