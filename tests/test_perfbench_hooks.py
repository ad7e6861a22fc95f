"""The benchmark's hooks into ``src/`` still resolve.

perfbench times each layer by patching the entry points its
``spans.LAYERS`` table names.  Installing the full table imports every
module and looks up every function and method on it, so a deleted or
renamed entry point fails here instead of on the next traced benchmark
run.  The program's own spans must use the same layer names and the same
self-time arithmetic, so ``valuecheck stats`` and perfbench agree.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.incremental import IncrementalAnalyzer
from repro.core.project import Project
from repro.core.valuecheck import ValueCheck, ValueCheckConfig
from repro.store import FindingsStore, evaluate_gate, project_sources
from tests.core.helpers import AUTHOR1, AUTHOR2, build_multifile_history

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@functools.cache
def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def test_every_layer_entry_point_installs_and_uninstalls():
    spans = _load_spans()
    recorder = spans.Recorder()
    recorder.install(spans.LAYERS)
    patches = list(recorder._patches)
    recorder.uninstall()
    targets = {target for targets in spans.LAYERS.values() for target in targets}
    assert len(patches) >= len(targets)
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original


#: Request-hop spans of the service and router: they time a request's
#: trip around the pipeline, not a pipeline layer.
REQUEST_HOPS = frozenset(
    {
        "queue.wait",
        "service.request",
        "session.lookup",
        "router.request",
        "router.forward",
        "router.migrate",
    }
)

BASE = {
    "lib.c": "int status(void)\n{\n    return 1;\n}\n",
    "app.c": (
        "int status(void);\n"
        "int run(void)\n"
        "{\n"
        "    int r;\n"
        "    r = status();\n"
        "    if (r) { return 1; }\n"
        "    return 0;\n"
        "}\n"
    ),
}
EDITED_APP = BASE["app.c"].replace("    r = status();\n", "    r = status();\n    r = 0;\n")


def test_program_span_names_are_perfbench_layers():
    """A traced cold analysis, one incremental step and a store diff plus
    gate record only spans named after perfbench's layers (or request
    hops), so ``valuecheck stats`` and the benchmark share one vocabulary."""
    spans = _load_spans()
    repo = build_multifile_history([(AUTHOR1, dict(BASE)), (AUTHOR2, {"app.c": EDITED_APP})])
    config = ValueCheckConfig(executor="serial", module_cache=False)
    telemetry = obs.Telemetry.fresh()
    with obs.use(telemetry):
        project = Project.from_repository(repo, rev=0)
        report = ValueCheck(config).analyze(project, rev=0)
        analyzer = IncrementalAnalyzer.from_project(project, config=config, rev=0)
        step = analyzer.replay_next()
        store = FindingsStore.in_memory()
        store.record_snapshot(report.findings, project_sources(project), rev="r0")
        evaluate_gate(store.diff(step.findings, project_sources(analyzer.project), rev="r1"))
    names = telemetry.tracer.span_names()
    assert names <= set(spans.LAYERS) | REQUEST_HOPS, names - set(spans.LAYERS)
    assert {
        "frontend.lex",
        "core.pipeline",
        "core.incremental",
        "vcs.blame",
        "store.fingerprint",
        "store.diff",
        "store.gate",
    } <= names


@st.composite
def span_forests(draw):
    """Spans as (name, start, end, parent index): nested children, and
    groups of parallel leaf children that overlap without nesting."""
    names = st.sampled_from(["a", "b", "c"])
    out: list = []

    def build(start: int, depth: int, parent: int | None) -> int:
        index = len(out)
        out.append(None)
        cursor = start + draw(st.integers(1, 3))
        for _ in range(draw(st.integers(0, 3 if depth < 3 else 0))):
            if draw(st.booleans()):
                cursor = build(cursor, depth + 1, index) + draw(st.integers(1, 3))
            else:
                width = draw(st.integers(2, 3))
                overlap = draw(st.integers(0, 2))
                for lane in range(width):
                    end = cursor + width + overlap + lane
                    out.append((draw(names), cursor + lane, end, index))
                cursor = end + draw(st.integers(1, 3))
        end = cursor + draw(st.integers(1, 3))
        out[index] = (draw(names), start, end, parent)
        return end

    cursor = 0
    for _ in range(draw(st.integers(1, 3))):
        cursor = build(cursor, 0, None) + draw(st.integers(0, 2))
    return out


@settings(max_examples=150, deadline=None)
@given(span_forests())
def test_self_times_match_perfbench_oracle(forest):
    """``Tracer.self_times`` (parent pointers) agrees with perfbench's
    ``self_times`` (interval containment), the named oracle."""
    spans = _load_spans()
    tracer = obs.Tracer()
    ids: list[int] = []
    for name, start, end, parent in forest:
        parent_id = ids[parent] if parent is not None else None
        ids.append(tracer.add_span(name, float(start), float(end), parent_id=parent_id).span_id)
    oracle = spans.self_times(spans.Span(name, start, end) for name, start, end, _ in forest)
    assert tracer.self_times() == pytest.approx(oracle)
