"""Per-pruner accounting metrics on crafted corpora.

Each of the four pruning strategies must show up in the
``prune.killed{pruner=...}`` counters, the pipeline totals must
reconcile (examined = killed + survived), and the peer-definition
pruner must record its site statistics around the paper's
">50% of >10 peer sites" thresholds — including both strict-inequality
edges."""

from __future__ import annotations

from repro.core.findings import CandidateKind, Finding
from repro.core.pruning import PeerDefinitionPruner, PruneContext, default_pipeline
from repro.obs import MetricsRegistry
from repro.obs.sinks import prune_kills

from tests.core.helpers import candidates_for

ALL_PRUNERS = ("config_dependency", "cursor", "unused_hints", "peer_definition")


def metered_context(project):
    registry = MetricsRegistry()
    return PruneContext(project=project, metrics=registry), registry


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


class TestPerPrunerKillCounters:
    """One corpus with a kill for every strategy, fully reconciled."""

    def _corpus(self):
        sources = _callers(unused=12)  # peer_definition: 12 ignored returns
        sources["conf.c"] = (  # config_dependency: host used only under #if
            "int netdbLookupHost(int host);\n"
            "void f(void)\n"
            "{\n"
            "    int host = 1;\n"
            "#if USE_ICMP\n"
            "    netdbLookupHost(host);\n"
            "#endif\n"
            "}\n"
        )
        sources["cursor.c"] = (  # cursor: classic *o++ output pointer
            "void dashes_to_underscores(char *output, char c)\n"
            "{\n"
            "    char *o = output;\n"
            "    if (c == '-')\n"
            "        *o++ = '_';\n"
            "    *o++ = '\\0';\n"
            "}\n"
        )
        sources["hint.c"] = (  # unused_hints: attribute-annotated local
            "void g(void)\n{\n    int x __attribute__((unused)) = 1;\n}\n"
        )
        sources["plain.c"] = "void h(void)\n{\n    int y = 1;\n}\n"  # survivor
        return candidates_for(sources)

    def test_every_pruner_accounts_its_kills(self):
        project, found = self._corpus()
        findings = [Finding(candidate=candidate) for candidate in found]
        context, registry = metered_context(project)
        pipeline = default_pipeline()
        stamped = pipeline.apply(findings, context)

        kills = prune_kills(registry.snapshot())
        assert set(kills) == set(ALL_PRUNERS)
        # The metric counters are exactly the stamped-findings tally.
        assert kills == pipeline.stats(stamped)
        assert kills["peer_definition"] == 12
        assert kills["config_dependency"] >= 1
        assert kills["cursor"] >= 1
        assert kills["unused_hints"] >= 1

    def test_totals_reconcile(self):
        project, found = self._corpus()
        findings = [Finding(candidate=candidate) for candidate in found]
        context, registry = metered_context(project)
        stamped = default_pipeline().apply(findings, context)

        killed_total = sum(prune_kills(registry.snapshot()).values())
        assert registry.counter("prune.examined") == len(findings)
        assert registry.counter("prune.survived") == len(findings) - killed_total
        assert killed_total == sum(1 for f in stamped if f.pruned_by is not None)
        assert registry.counter("prune.survived") >= 1  # plain.c's y survives

    def test_zero_initialised_even_with_no_findings(self):
        project, _ = candidates_for({"t.c": "void f(void)\n{\n}\n"})
        context, registry = metered_context(project)
        default_pipeline().apply([], context)
        assert prune_kills(registry.snapshot()) == {name: 0 for name in ALL_PRUNERS}

    def test_context_helpers_noop_without_metrics(self):
        project, _ = candidates_for({"t.c": "void f(void)\n{\n}\n"})
        context = PruneContext(project=project)
        context.observe("prune.peer_sites", 3, shape="return")


class TestPeerThresholdEdges:
    """The §5.4 thresholds are strict inequalities on exactly the numbers
    the `prune.peer_sites` / `prune.peer_unused_fraction` histograms
    record."""

    def _examine(self, unused, used=0):
        project, found = candidates_for(_callers(unused, used))
        candidate = [c for c in found if c.kind is CandidateKind.IGNORED_RETURN][0]
        context, registry = metered_context(project)
        pruned = PeerDefinitionPruner().should_prune(candidate, context)
        return pruned, registry

    def test_exactly_ten_sites_not_pruned(self):
        # 10 sites is NOT "over ten" — strict > on the occurrence count.
        pruned, registry = self._examine(unused=10)
        assert not pruned
        assert registry.histogram("prune.peer_sites", shape="return") == [10]
        assert registry.histogram("prune.peer_unused_fraction", shape="return") == [1.0]

    def test_eleven_sites_just_over_half_unused_pruned(self):
        # 11 sites, 6 unused: 6 > 0.5 * 11 — the smallest pruning majority.
        pruned, registry = self._examine(unused=6, used=5)
        assert pruned
        assert registry.histogram("prune.peer_sites", shape="return") == [11]
        (fraction,) = registry.histogram("prune.peer_unused_fraction", shape="return")
        assert abs(fraction - 6 / 11) < 1e-9

    def test_exactly_half_unused_not_pruned(self):
        # 12 sites, 6 unused: 6 > 0.5 * 12 is false — strict > on the fraction.
        pruned, registry = self._examine(unused=6, used=6)
        assert not pruned
        assert registry.histogram("prune.peer_sites", shape="return") == [12]
        assert registry.histogram("prune.peer_unused_fraction", shape="return") == [0.5]

    def test_param_shape_recorded_separately(self):
        # 12 same-signature handlers, all ignoring their second parameter.
        sources = {}
        for index in range(12):
            sources[f"h{index}.c"] = (
                f"int handler{index}(int fd, int flags)\n{{\n    return fd;\n}}\n"
            )
        caller = "".join(f"int handler{i}(int fd, int flags);\n" for i in range(12))
        caller += "void entry(void)\n{\n"
        for index in range(12):
            caller += (
                f"    int r{index};\n    r{index} = handler{index}(1, 2);\n"
                f"    if (r{index}) {{ return; }}\n"
            )
        caller += "}\n"
        sources["caller.c"] = caller
        project, found = candidates_for(sources)
        candidate = [c for c in found if c.kind is CandidateKind.UNUSED_PARAM][0]
        context, registry = metered_context(project)
        assert PeerDefinitionPruner().should_prune(candidate, context)
        assert registry.histogram("prune.peer_sites", shape="param") == [12]
        assert registry.histogram("prune.peer_sites", shape="return") == []
