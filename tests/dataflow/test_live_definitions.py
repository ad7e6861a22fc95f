"""The per-function facts every rule pack and the project index share.

A module's :class:`~repro.pointer.value_flow.ValueFlowGraph` computes each
function's temp def map, temp use map and Fig. 4 LiveSet + DefSet solve
once, on first request.  These tests count the builds one module analysis
makes, and check the shared solve against plain liveness
(:func:`repro.dataflow.liveness.live_variables`), its oracle.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings

import repro.dataflow.framework as framework
from repro.core.project import build_contribution
from repro.corpus import generate_app
from repro.dataflow.liveness import live_variables
from repro.engine.worker import analyze_lowered
from repro.ir import lower_source
from repro.ir.module import Function
from repro.pointer import build_value_flow
from tests.test_properties import gen_program, program_params

#: Frees, acquires and releases, so the two semantic packs scan real sites.
RESOURCES = """
void free(void *p);
int *malloc(int n);
int use(int *p);
int leak(int flag)
{
    int *p;
    p = malloc(4);
    if (flag) {
        free(p);
        return 0;
    }
    return use(p);
}
int dangle(void)
{
    int *q;
    q = malloc(8);
    free(q);
    return use(q);
}
"""


@pytest.fixture(scope="module")
def modules():
    sources = dict(generate_app("mysql", scale=0.03, seed=1).project().sources)
    sources["resources.c"] = RESOURCES
    return {path: lower_source(text, filename=path) for path, text in sorted(sources.items())}


@pytest.fixture
def builds(monkeypatch):
    """Per-(file, function) counts of def maps, use maps and backward
    solves built while the test runs."""
    counts = {"defs": Counter(), "uses": Counter(), "solves": Counter()}

    def counting(kind, method, function_of):
        def wrapper(*args):
            function = function_of(*args)
            counts[kind][(function.filename, function.name)] += 1
            return method(*args)

        return wrapper

    solver = framework.BackwardSolver
    monkeypatch.setattr(
        Function, "temp_def_map", counting("defs", Function.temp_def_map, lambda f: f)
    )
    monkeypatch.setattr(
        Function, "temp_use_map", counting("uses", Function.temp_use_map, lambda f: f)
    )
    monkeypatch.setattr(solver, "solve", counting("solves", solver.solve, lambda _, f: f))
    return counts


@pytest.mark.parametrize(
    "rules, kinds",
    [(None, {"use_after_free", "resource_leak"}), (("use_after_free",), {"use_after_free"})],
    ids=["all-packs", "uaf-only"],
)
def test_one_analysis_builds_each_fact_once_per_function(modules, builds, rules, kinds):
    found = set()
    for path, module in modules.items():
        result = analyze_lowered(path, module, rules=rules)
        found |= {candidate.kind.value for candidate in result.candidates}
    assert kinds <= found
    every = Counter(
        (function.filename, function.name)
        for module in modules.values()
        for function in module.functions.values()
    )
    assert builds["defs"] == every
    assert builds["uses"] == every
    assert builds["solves"] == every


@given(params=program_params)
@settings(max_examples=100, deadline=None)
def test_shared_solve_matches_plain_liveness(params):
    seed, n = params
    module = lower_source(gen_program(seed, n), filename="gen.c")
    vfg = build_value_flow(module)
    for function in module.functions.values():
        solve, oracle = vfg.liveness(function), live_variables(function)
        for block in function.blocks:
            assert solve.live_in(block) == oracle.live_in(block), block.label
            assert solve.live_out(block) == oracle.live_out(block), block.label
    contribution = build_contribution("gen.c", module, vfg)
    expected = [
        param.name in live_variables(function).live_at_entry()
        for function in module.functions.values()
        for param in function.params
    ]
    assert [used for _, _, used in contribution.param_usage] == expected
