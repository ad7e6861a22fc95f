"""Tests for the Steensgaard and flow-sensitive pointer analyses, and
their agreement/divergence with Andersen's (the §4.1 design-space)."""

import pytest

from repro.corpus import generate_app
from repro.eval import pointer_comparison
from repro.ir import Call, lower_source
from repro.pointer import (
    analyze_module,
    analyze_module_flow_sensitive,
    analyze_module_steensgaard,
    build_value_flow,
)
from repro.pointer.andersen import loc_node


def module_of(text):
    return lower_source(text, filename="t.c")


BASIC = "void f(void) { int x; int *p; p = &x; }"
BRANCHY = "void f(int c) { int x; int y; int *p; if (c) { p = &x; } else { p = &y; } }"


class TestSteensgaard:
    def test_address_of(self):
        result = analyze_module_steensgaard(module_of(BASIC))
        assert loc_node("f", "x") in result.pts_of_var("f", "p")

    def test_unification_merges_targets(self):
        result = analyze_module_steensgaard(module_of(BRANCHY))
        pts = result.pts_of_var("f", "p")
        assert loc_node("f", "x") in pts and loc_node("f", "y") in pts

    def test_coarser_than_andersen(self):
        # q = &x; r = &y; q = r  — Steensgaard merges x and y's classes,
        # so q appears to point at both; Andersen keeps r precise.
        src = "void f(void) { int x; int y; int *q; int *r; q = &x; r = &y; q = r; }"
        module = module_of(src)
        steens = analyze_module_steensgaard(module)
        anders = analyze_module(module)
        assert anders.pts_of_var("f", "r") == {loc_node("f", "y")}
        assert steens.pts_of_var("f", "r") >= anders.pts_of_var("f", "r")

    def test_is_pointed_to(self):
        result = analyze_module_steensgaard(module_of(BASIC))
        assert result.is_pointed_to("f", "x")
        assert not result.is_pointed_to("f", "p")

    def test_indirect_call_resolution(self):
        src = """
        int impl(void) { return 1; }
        void f(void) { int r; int *fp; fp = impl; r = fp(); }
        """
        module = module_of(src)
        result = analyze_module_steensgaard(module)
        call = next(
            i
            for i in module.functions["f"].instructions()
            if isinstance(i, Call) and i.is_indirect
        )
        assert result.callees_of(call) == ["impl"]

    def test_overapproximates_andersen(self):
        # Soundness cross-check: every Andersen pointee appears in the
        # Steensgaard result too (unification only merges).
        src = """
        void callee(int *p) { }
        void f(int c) {
            int x; int y; int *p; int *q;
            if (c) { p = &x; } else { p = &y; }
            q = p;
            callee(q);
        }
        """
        module = module_of(src)
        steens = analyze_module_steensgaard(module)
        anders = analyze_module(module)
        for var in ("p", "q"):
            assert anders.pts_of_var("f", var) <= steens.pts_of_var("f", var)


class TestFlowSensitive:
    def test_address_of(self):
        result = analyze_module_flow_sensitive(module_of(BASIC))
        assert loc_node("f", "x") in result.pts_of_var("f", "p")

    def test_strong_update(self):
        # After p = &y the analysis forgets &x at that point; the summary
        # union still contains both (clients are flow-insensitive).
        src = "void f(void) { int x; int y; int *p; p = &x; p = &y; *p = 1; }"
        result = analyze_module_flow_sensitive(module_of(src))
        pts = result.pts_of_var("f", "p")
        assert loc_node("f", "y") in pts

    def test_branch_join(self):
        result = analyze_module_flow_sensitive(module_of(BRANCHY))
        pts = result.pts_of_var("f", "p")
        assert loc_node("f", "x") in pts and loc_node("f", "y") in pts

    def test_escape_at_call(self):
        src = "void sink(int *p);\nvoid f(void) { int x; int *p; p = &x; sink(p); }"
        result = analyze_module_flow_sensitive(module_of(src))
        assert result.is_pointed_to("f", "x")

    def test_function_pointer(self):
        src = """
        int impl(void) { return 1; }
        void f(void) { int r; int *fp; fp = impl; r = fp(); }
        """
        module = module_of(src)
        result = analyze_module_flow_sensitive(module)
        call = next(
            i
            for i in module.functions["f"].instructions()
            if isinstance(i, Call) and i.is_indirect
        )
        assert result.callees_of(call) == ["impl"]

    def test_usable_by_value_flow_graph(self):
        module = module_of(BASIC)
        vfg = build_value_flow(module, andersen=analyze_module_flow_sensitive(module))
        assert vfg is not None


class TestPointerComparison:
    @pytest.fixture(scope="class")
    def result(self):
        app = generate_app("openssl", scale=0.05, seed=13)
        return pointer_comparison.run(app.project(), app_name="openssl")

    def test_all_analyses_ran(self, result):
        assert {row.analysis for row in result.rows} == {
            "steensgaard",
            "andersen",
            "andersen-reference",
            "flow-sensitive",
        }

    def test_reference_agrees_with_andersen(self, result):
        # Same fixpoint, so the ablation's detector output must match.
        assert (
            result.by_name("andersen-reference").candidates
            == result.by_name("andersen").candidates
        )

    def test_candidate_counts_close(self, result):
        andersen = result.by_name("andersen").candidates
        flow = result.by_name("flow-sensitive").candidates
        assert andersen > 0
        # "a small difference in help detecting unused definitions"
        assert abs(flow - andersen) / andersen < 0.2

    def test_steensgaard_not_more_precise(self, result):
        # Coarser alias sets can only suppress more candidates.
        assert result.by_name("steensgaard").candidates <= result.by_name("andersen").candidates

    def test_render(self, result):
        assert "Pointer-analysis ablation" in result.render()
        # Every row lines up under its header, the longest name included.
        header, *rows = result.render().splitlines()[1:-1]
        candidates_end = header.index("#Candidates") + len("#Candidates")
        assert len(rows) == len(result.rows)
        for line, row in zip(rows, result.rows):
            assert line.startswith(row.analysis + " ")
            assert line[:candidates_end].endswith(f" {row.candidates}"), line
            assert len(line) == len(header), line
