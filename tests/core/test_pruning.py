"""Unit tests for the four pruning strategies and the pipeline."""

from repro.core.findings import CandidateKind, Finding
from repro.core.pruning import (
    ConfigDependencyPruner,
    CursorPruner,
    PeerDefinitionPruner,
    PruneContext,
    UnusedHintsPruner,
    default_pipeline,
)

from tests.core.helpers import candidates_for


def context_for(project):
    return PruneContext(project=project)


class TestConfigDependency:
    SRC = (
        "int netdbLookupHost(int host);\n"
        "void f(void)\n"
        "{\n"
        "    int host = 1;\n"
        "#if USE_ICMP\n"
        "    netdbLookupHost(host);\n"
        "#endif\n"
        "}\n"
    )

    def test_prunes_conditional_use(self):
        project, found = candidates_for({"t.c": self.SRC})
        pruner = ConfigDependencyPruner()
        (candidate,) = [c for c in found if c.var == "host"]
        assert pruner.should_prune(candidate, context_for(project))

    def test_no_conditional_use_not_pruned(self):
        src = "void f(void)\n{\n    int host = 1;\n}\n"
        project, found = candidates_for({"t.c": src})
        (candidate,) = [c for c in found if c.var == "host"]
        assert not ConfigDependencyPruner().should_prune(candidate, context_for(project))

    def test_conditional_in_other_function_ignored(self):
        src = (
            "void g(void)\n{\n#if FOO\n    int host = 2;\n#endif\n}\n"
            "void f(void)\n{\n    int host = 1;\n}\n"
        )
        project, found = candidates_for({"t.c": src})
        matches = [c for c in found if c.var == "host" and c.function == "f"]
        assert matches
        assert not ConfigDependencyPruner().should_prune(matches[0], context_for(project))

    def test_definition_line_itself_does_not_count(self):
        src = "void f(void)\n{\n#if FOO\n    int host = 1;\n#endif\n}\n"
        project, found = candidates_for({"t.c": src}, config={"FOO"})
        matches = [c for c in found if c.var == "host"]
        assert matches
        assert not ConfigDependencyPruner().should_prune(matches[0], context_for(project))


class TestCursor:
    FIG5 = (
        "void dashes_to_underscores(char *output, char c)\n"
        "{\n"
        "    char *o = output;\n"
        "    if (c == '-')\n"
        "        *o++ = '_';\n"
        "    *o++ = '\\0';\n"
        "}\n"
    )

    def test_prunes_figure5_cursor(self):
        project, found = candidates_for({"t.c": self.FIG5})
        cursor_candidates = [c for c in found if c.var == "o" and c.increment_delta == 1]
        assert cursor_candidates
        pruner = CursorPruner()
        assert pruner.should_prune(cursor_candidates[0], context_for(project))

    def test_single_increment_not_pruned(self):
        src = "void f(int n)\n{\n    n++;\n}\n"
        project, found = candidates_for({"t.c": src})
        (candidate,) = [c for c in found if c.var == "n" and c.increment_delta == 1]
        assert not CursorPruner(min_increments=2).should_prune(candidate, context_for(project))

    def test_different_deltas_not_cursor(self):
        src = "void f(int n)\n{\n    n = n + 1;\n    n = n + 8;\n}\n"
        project, found = candidates_for({"t.c": src})
        final = [c for c in found if c.var == "n" and c.increment_delta == 8]
        assert final
        assert not CursorPruner().should_prune(final[0], context_for(project))

    def test_non_increment_store_not_cursor(self):
        src = "void f(int n)\n{\n    n = 7;\n}\n"
        project, found = candidates_for({"t.c": src})
        (candidate,) = [c for c in found if c.var == "n" and c.kind is CandidateKind.DEAD_STORE]
        assert not CursorPruner().should_prune(candidate, context_for(project))


class TestUnusedHints:
    def test_attribute_hint(self):
        src = "void f(void)\n{\n    int x __attribute__((unused)) = 1;\n}\n"
        project, found = candidates_for({"t.c": src})
        (candidate,) = [c for c in found if c.var == "x"]
        assert UnusedHintsPruner().should_prune(candidate, context_for(project))

    def test_maybe_unused_param(self):
        src = "int do_flush(int force [[maybe_unused]])\n{\n    return 0;\n}\n"
        project, found = candidates_for({"t.c": src})
        (candidate,) = [c for c in found if c.var == "force"]
        assert UnusedHintsPruner().should_prune(candidate, context_for(project))

    def test_void_cast_discard(self):
        src = "int g(void);\nvoid f(void)\n{\n    (void) g();\n}\n"
        project, found = candidates_for({"t.c": src})
        (candidate,) = [c for c in found if c.kind is CandidateKind.IGNORED_RETURN]
        assert UnusedHintsPruner().should_prune(candidate, context_for(project))

    def test_comment_marker(self):
        src = "void f(void)\n{\n    int x = 1; /* unused on purpose */\n}\n"
        project, found = candidates_for({"t.c": src})
        (candidate,) = [c for c in found if c.var == "x"]
        assert UnusedHintsPruner().should_prune(candidate, context_for(project))

    def test_unhinted_not_pruned(self):
        src = "void f(void)\n{\n    int x = 1;\n}\n"
        project, found = candidates_for({"t.c": src})
        (candidate,) = [c for c in found if c.var == "x"]
        assert not UnusedHintsPruner().should_prune(candidate, context_for(project))


def _many_callers(count, used=False):
    """`count` files each calling log_msg(), optionally using the result."""
    sources = {"log.c": "int log_msg(int level)\n{\n    return 0;\n}\n"}
    for index in range(count):
        if used:
            body = "    int r;\n    r = log_msg(1);\n    if (r) { return; }\n"
        else:
            body = "    log_msg(1);\n"
        sources[f"caller{index}.c"] = (
            "int log_msg(int level);\n" f"void use{index}(void)\n{{\n{body}}}\n"
        )
    return sources


class TestPeerDefinition:
    def test_mostly_ignored_return_pruned(self):
        project, found = candidates_for(_many_callers(12, used=False))
        candidate = [c for c in found if c.kind is CandidateKind.IGNORED_RETURN][0]
        assert PeerDefinitionPruner().should_prune(candidate, context_for(project))

    def test_too_few_occurrences_not_pruned(self):
        project, found = candidates_for(_many_callers(5, used=False))
        candidate = [c for c in found if c.kind is CandidateKind.IGNORED_RETURN][0]
        assert not PeerDefinitionPruner().should_prune(candidate, context_for(project))

    def test_mostly_used_not_pruned(self):
        sources = _many_callers(11, used=True)
        sources["ignorer.c"] = "int log_msg(int level);\nvoid bad(void)\n{\n    log_msg(2);\n}\n"
        project, found = candidates_for(sources)
        candidate = [c for c in found if c.kind is CandidateKind.IGNORED_RETURN][0]
        assert not PeerDefinitionPruner().should_prune(candidate, context_for(project))

    def test_peer_params_pruned(self):
        # 12 functions share the signature and ignore their 2nd parameter.
        sources = {}
        for index in range(12):
            sources[f"h{index}.c"] = (
                f"int handler{index}(int fd, int flags)\n{{\n    return fd;\n}}\n"
            )
        caller = "".join(f"int handler{i}(int fd, int flags);\n" for i in range(12))
        caller += "void entry(void)\n{\n"
        for index in range(12):
            caller += f"    int r{index};\n    r{index} = handler{index}(1, 2);\n    if (r{index}) {{ return; }}\n"
        caller += "}\n"
        sources["caller.c"] = caller
        project, found = candidates_for(sources)
        param_candidates = [c for c in found if c.kind is CandidateKind.UNUSED_PARAM]
        assert param_candidates
        pruner = PeerDefinitionPruner()
        assert pruner.should_prune(param_candidates[0], context_for(project))


class TestPipeline:
    def test_order_earlier_stage_claims(self):
        # A candidate that is both config-dependent AND hinted is claimed by
        # config dependency (it runs first).
        src = (
            "int use_it(int x);\n"
            "void f(void)\n"
            "{\n"
            "    int x __attribute__((unused)) = 1;\n"
            "#if FEATURE\n"
            "    use_it(x);\n"
            "#endif\n"
            "}\n"
        )
        project, found = candidates_for({"t.c": src})
        findings = [Finding(candidate=c) for c in found if c.var == "x"]
        pipeline = default_pipeline()
        stamped = pipeline.apply(findings, context_for(project))
        assert stamped[0].pruned_by == "config_dependency"

    def test_survivors_unstamped(self):
        src = "void f(void)\n{\n    int x = 1;\n}\n"
        project, found = candidates_for({"t.c": src})
        findings = [Finding(candidate=c) for c in found]
        stamped = default_pipeline().apply(findings, context_for(project))
        assert all(f.pruned_by is None for f in stamped)

    def test_stats_accounting(self):
        src = (
            "void f(void)\n{\n    int a __attribute__((unused)) = 1;\n    int b = 2;\n}\n"
        )
        project, found = candidates_for({"t.c": src})
        findings = [Finding(candidate=c) for c in found]
        pipeline = default_pipeline()
        stamped = pipeline.apply(findings, context_for(project))
        stats = pipeline.stats(stamped)
        assert stats["unused_hints"] == 1
        assert stats["config_dependency"] == 0

    def test_enable_subset(self):
        pipeline = default_pipeline(enable={"cursor"})
        assert [p.name for p in pipeline.pruners] == ["cursor"]

    def test_disable_all(self):
        pipeline = default_pipeline(enable=set())
        assert pipeline.pruners == []
