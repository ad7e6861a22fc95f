"""Tests for the project call graph and incremental caller-widening."""

from repro.core.incremental import IncrementalAnalyzer
from repro.core.project import Project
from repro.corpus import generate_app

from tests.core.callgraph_reference import build_call_graph
from tests.core.helpers import AUTHOR1, AUTHOR2, analyzed, build_multifile_history

SOURCES = {
    "lib.c": (
        "int leaf(int x)\n{\n    if (x) { return 1; }\n    return 0;\n}\n"
        "int middle(int x)\n{\n    int r;\n    r = leaf(x);\n    return r;\n}\n"
    ),
    "app.c": (
        "int middle(int x);\n"
        "int leaf(int x);\n"
        "void top(void)\n{\n    int a;\n    a = middle(1);\n    if (a) { leaf(2); }\n}\n"
    ),
}


def graph_for(sources=None):
    project = analyzed(Project.from_sources(sources or SOURCES))
    return build_call_graph(project)


class TestCallGraph:
    def test_direct_edges(self):
        graph = graph_for()
        assert graph.callees_of("middle") == {"leaf"}
        assert graph.callees_of("top") == {"middle", "leaf"}

    def test_reverse_edges(self):
        graph = graph_for()
        assert graph.callers_of("leaf") == {"middle", "top"}
        assert graph.callers_of("middle") == {"top"}

    def test_transitive_callers(self):
        graph = graph_for()
        assert graph.transitive_callers("leaf") == {"middle", "top"}

    def test_transitive_callees(self):
        graph = graph_for()
        assert graph.transitive_callees("top") == {"middle", "leaf"}

    def test_depth_limit(self):
        graph = graph_for()
        assert graph.transitive_callers("leaf", max_depth=1) == {"middle", "top"}

    def test_roots(self):
        graph = graph_for()
        assert graph.roots() == ["top"]

    def test_indirect_calls_included(self):
        sources = {
            "t.c": (
                "int impl(int x)\n{\n    return x;\n}\n"
                "void f(void)\n{\n    int r;\n    int *fp;\n    fp = impl;\n    r = fp(1);\n    if (r) { return; }\n}\n"
            )
        }
        graph = graph_for(sources)
        assert "impl" in graph.callees_of("f")

    def test_recursion_terminates(self):
        sources = {"t.c": "int f(int x)\n{\n    if (x) { return f(x - 1); }\n    return 0;\n}\n"}
        graph = graph_for(sources)
        assert graph.transitive_callers("f") == {"f"}


class TestIncrementalWidening:
    CALLEE_V1 = "int fetch(int x)\n{\n    return 0;\n}\n"
    # The new version can fail — suddenly the caller's ignored result matters.
    CALLEE_V2 = "int fetch(int x)\n{\n    if (x < 0) { return -1; }\n    return 0;\n}\n"
    CALLER = "int fetch(int x);\nvoid use(void)\n{\n    fetch(3);\n}\n"

    def repo(self):
        return build_multifile_history(
            [
                (AUTHOR1, {"callee.c": self.CALLEE_V1, "caller.c": self.CALLER}),
                (AUTHOR2, {"callee.c": self.CALLEE_V2}),
            ]
        )

    def test_callers_reanalyzed(self):
        analyzer = IncrementalAnalyzer(Project.from_repository(self.repo(), rev=0), rev=0)
        result = analyzer.replay()
        assert result.changed_functions == ["fetch"]
        # the caller's ignored-return candidate is rediscovered via widening
        assert any(f.candidate.function == "use" for f in result.findings)

    def test_widening_matches_call_graph_oracle(self):
        """Every caller of a changed function, by the whole-project call
        graph, is re-analysed on each replayed commit."""
        app = generate_app("mysql", scale=0.05, seed=1)
        project = Project.from_repository(app.repo, rev=20, build_config=set(app.build_config))
        analyzer = IncrementalAnalyzer(project, rev=20)
        widened = 0
        for _ in range(10):
            result = analyzer.replay()
            graph = build_call_graph(analyzer.project)
            analyzed = set(result.analyzed_functions)
            for name in result.changed_functions:
                for caller in graph.callers_of(name):
                    location = analyzer.project.index.location(caller)
                    assert (location.file, caller) in analyzed
                    widened += 1
        assert widened
