"""Provenance verdicts from the pruning pipeline.

Three invariants:

* the peer-definition evidence records exactly the peer sites the
  pruner counted — checked around the 9/10/11 threshold edges against
  both the metric histograms and a by-hand site count;
* ``prune.killed`` counters and provenance ``pruned_by`` aggregates are
  derived from the same verdict objects, so they are equal even under
  short-circuiting (a candidate prunable by two strategies is claimed
  by the first in pipeline order, and the audit trail stops there);
* the provenance JSONL export is byte-identical across the serial,
  thread and process executors.
"""

from __future__ import annotations

from repro.core.findings import CandidateKind, Finding
from repro.core.pruning import PeerDefinitionPruner, PruneContext, default_pipeline
from repro.core.valuecheck import ValueCheck, ValueCheckConfig
from repro.obs import MetricsRegistry, ProvenanceLog
from repro.obs.sinks import prune_kills

from tests.core.helpers import candidates_for, project_from_sources


def _callers(unused, used=0):
    """Call sites of log_msg(): `unused` ignore the result, `used` consume it."""
    sources = {"log.c": "int log_msg(int level)\n{\n    return 0;\n}\n"}
    for index in range(unused + used):
        if index < unused:
            body = "    log_msg(1);\n"
        else:
            body = "    int r;\n    r = log_msg(1);\n    if (r) { return; }\n"
        sources[f"caller{index}.c"] = (
            "int log_msg(int level);\n" f"void use{index}(void)\n{{\n{body}}}\n"
        )
    return sources


class TestPeerEvidenceMatchesCountedSites:
    """Evidence sites == histogram observations == the real site count."""

    def _decide(self, unused, used=0):
        project, found = candidates_for(_callers(unused, used))
        candidate = [c for c in found if c.kind is CandidateKind.IGNORED_RETURN][0]
        registry = MetricsRegistry()
        context = PruneContext(project=project, metrics=registry)
        verdict = PeerDefinitionPruner().decide(candidate, context)
        return verdict, registry

    def test_nine_sites_under_threshold(self):
        verdict, registry = self._decide(unused=9)
        assert not verdict.pruned
        assert verdict.evidence["sites"] == 9
        assert verdict.evidence["unused"] == 9
        assert registry.histogram("prune.peer_sites", shape="return") == [9]

    def test_ten_sites_exactly_at_threshold_not_pruned(self):
        # "over ten" is a strict inequality: 10 sites do not prune.
        verdict, registry = self._decide(unused=10)
        assert not verdict.pruned
        assert verdict.evidence["sites"] == 10
        assert verdict.evidence["min_occurrences"] == 10
        assert registry.histogram("prune.peer_sites", shape="return") == [10]

    def test_eleven_sites_over_threshold_pruned(self):
        verdict, registry = self._decide(unused=11)
        assert verdict.pruned
        assert verdict.evidence["sites"] == 11
        assert verdict.evidence["unused"] == 11
        assert verdict.evidence["fraction"] == 1.0
        assert verdict.evidence["callee"] == "log_msg"
        assert registry.histogram("prune.peer_sites", shape="return") == [11]

    def test_fraction_matches_ratio(self):
        verdict, registry = self._decide(unused=6, used=5)
        assert verdict.pruned
        assert verdict.evidence["sites"] == 11
        assert verdict.evidence["unused"] == 6
        assert abs(verdict.evidence["fraction"] - 6 / 11) < 1e-9
        (fraction,) = registry.histogram("prune.peer_unused_fraction", shape="return")
        assert fraction == verdict.evidence["fraction"]


class TestCountersEqualVerdicts:
    """Satellite invariant: one code path feeds both accountings."""

    def _run(self, sources):
        project, found = candidates_for(sources)
        findings = [Finding(candidate=c) for c in found]
        registry = MetricsRegistry()
        provenance = ProvenanceLog()
        for candidate in found:
            from repro.obs import detection_record

            provenance.add_detection(detection_record(candidate))
        context = PruneContext(project=project, metrics=registry, provenance=provenance)
        stamped = default_pipeline().apply(findings, context)
        return stamped, registry, provenance

    def test_kill_counters_equal_provenance_aggregates(self):
        sources = _callers(unused=12)
        sources["hint.c"] = "void g(void)\n{\n    int x __attribute__((unused)) = 1;\n}\n"
        sources["plain.c"] = "void h(void)\n{\n    int y = 1;\n}\n"
        stamped, registry, provenance = self._run(sources)
        counters = {k: v for k, v in prune_kills(registry.snapshot()).items() if v}
        assert counters == provenance.aggregates()["pruned_by"]
        assert counters  # the corpus does produce kills

    def test_short_circuit_stops_the_trail_at_the_claiming_pruner(self):
        # An attribute-hinted candidate dies at unused_hints; the
        # peer_definition pruner (later in pipeline order) must appear in
        # neither the counters nor the verdict trail for it.
        sources = _callers(unused=12)
        sources["hint.c"] = "void g(void)\n{\n    int x __attribute__((unused)) = 1;\n}\n"
        stamped, registry, provenance = self._run(sources)
        hinted = [f for f in stamped if f.candidate.file == "hint.c"][0]
        assert hinted.pruned_by == "unused_hints"
        record = provenance.get(hinted.key)
        assert record.pruned_by == "unused_hints"
        assert [v.pruner for v in record.verdicts] == [
            "config_dependency",
            "cursor",
            "unused_hints",
        ]
        assert record.verdicts[-1].pruned

    def test_every_stamped_kill_has_a_matching_verdict(self):
        stamped, registry, provenance = self._run(_callers(unused=12))
        for finding in stamped:
            record = provenance.get(finding.key)
            if finding.pruned_by is None:
                assert all(not v.pruned for v in record.verdicts)
            else:
                assert record.verdicts[-1].pruner == finding.pruned_by
                assert record.verdicts[-1].pruned


class TestExecutorDeterminism:
    """The JSONL export is byte-identical across executors."""

    def _sources(self):
        sources = _callers(unused=4, used=2)
        sources["extra.c"] = (
            "int helper(void);\n"
            "void extra(void)\n"
            "{\n"
            "    int a;\n"
            "    a = helper();\n"
            "    a = 2;\n"
            "    if (a) { return; }\n"
            "}\n"
        )
        return sources

    def _jsonl(self, executor):
        project = project_from_sources(self._sources())
        config = ValueCheckConfig(
            use_authorship=False, executor=executor, workers=2, module_cache=False
        )
        report = ValueCheck(config).analyze(project)
        return report.explain_jsonl()

    def test_process_matches_serial_byte_for_byte(self):
        assert self._jsonl("process") == self._jsonl("serial")

    def test_cache_replay_matches_cold_run(self):
        # Same content analyzed twice through one shared cache: the
        # second (all-hits) run must replay identical detection slices.
        from repro.engine import AnalysisEngine, ResultCache

        project_a = project_from_sources(self._sources())
        project_b = project_from_sources(self._sources())
        cache = ResultCache()
        engine = AnalysisEngine(executor="serial", cache=cache)
        cold_log, warm_log = ProvenanceLog(), ProvenanceLog()
        engine.run(project_a, provenance=cold_log)
        run = engine.run(project_b, provenance=warm_log)
        assert run.stats.cache_hits == run.stats.modules  # genuinely replayed
        assert warm_log.to_jsonl() == cold_log.to_jsonl()
