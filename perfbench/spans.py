"""Per-layer spans recorded from outside the program.

The benchmark does not instrument ``src/``.  Instead, for a traced run it
wraps each layer's public entry point (the table below) with a function of
its own that records ``(layer, start, end)`` on the monotonic clock and
then calls the original.  Spans stay in memory until the run ends.

Self time is computed by interval containment, not by thread-local
parent pointers: the benchmark keeps exactly one request in flight, so a
span that lies inside another one was caused by it even when it ran on a
different thread (the service's worker threads) or in a different
process (the router's workers; ``time.perf_counter`` is CLOCK_MONOTONIC,
shared by every process on the host).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

#: Root span the workloads open around each traced operation.  Its self
#: time is the residual: wall time no layer accounts for.
OP = "op"

#: layer name -> entry points ("module:qualname").  A function is patched
#: at every module global that binds it, a method on its class.
LAYERS: dict[str, tuple[str, ...]] = {
    "frontend.preprocess": ("repro.frontend.preprocessor:preprocess",),
    "frontend.lex": ("repro.frontend.lexer:tokenize",),
    "frontend.parse": ("repro.frontend.parser:Parser.parse_translation_unit",),
    "ir.lower": ("repro.ir.builder:lower_unit",),
    "pointer.andersen": ("repro.pointer.andersen:analyze_module",),
    "pointer.vfg": ("repro.pointer.value_flow:build_value_flow",),
    "rules.detect": (
        "repro.rules.unused_defs:UnusedDefinitionsPack.detect",
        "repro.rules.use_after_free:UseAfterFreePack.detect",
        "repro.rules.resource_leak:ResourceLeakPack.detect",
    ),
    "engine.contribution": ("repro.core.project:build_contribution",),
    "engine.run": ("repro.engine.scheduler:AnalysisEngine.run",),
    # BlameIndex builds lazily: the per-file ``blame`` walk is the work.
    "vcs.blame": ("repro.vcs.blame:blame",),
    # What ``Project.index`` calls when the index is not built yet.
    "core.index": ("repro.core.project:Project._build_index",),
    "core.resolve": (
        "repro.core.cross_scope:CrossScopeResolver.resolve_all",
        "repro.core.valuecheck:resolve_semantic",
    ),
    "core.prune": ("repro.core.pruning.pipeline:PruningPipeline.apply",),
    "core.rank": ("repro.core.ranking:rank_findings",),
    # The pipeline's own glue between its stages (provenance, metrics).
    "core.pipeline": ("repro.core.valuecheck:ValueCheck.analyze",),
    "core.incremental": ("repro.core.incremental:IncrementalAnalyzer.analyze_changes",),
    "store.fingerprint": ("repro.store.fingerprint:fingerprint_findings",),
    "store.diff": ("repro.store.store:FindingsStore.diff",),
    "store.gate": ("repro.store.gate:evaluate_gate",),
    # A warm session's own work around the pipeline: splicing a diff into
    # the last report, rendering provenance, building gate verdicts.
    "service.session": tuple(
        f"repro.service.sessions:ProjectSession.{method}"
        for method in ("analyze_full", "analyze_diff", "explain", "gate", "diff_findings", "snapshot_baseline")
    ),
    "service.overhead": ("repro.service.core:AnalysisService.submit",),
    # The router's whole turn for one request line: decode, forward over
    # TCP to the owning worker, relay the reply.
    "router.transport": ("repro.service.router:Router.submit_line",),
}

#: Requests the service and router answer inline (health probes, metric
#: scrapes); they run concurrently with the measured request, so they are
#: never recorded.
CONTROL_PLANE = frozenset({"health", "stats", "trace", "events", "shutdown"})


def _count_frontend(counts: Counter, args, kwargs, result) -> None:
    counts["frontend.modules"] += 1


def _count_engine(counts: Counter, args, kwargs, result) -> None:
    counts["engine.hits"] += result.stats.cache_hits
    counts["engine.misses"] += result.stats.cache_misses


#: Counters taken from an entry point's arguments or result.
COUNTERS: dict[str, Callable] = {
    "frontend.lex": _count_frontend,
    "engine.run": _count_engine,
}


@dataclass
class Span:
    name: str
    start: float
    end: float


@dataclass
class Recorder:
    """In-memory span and counter sink; records only while ``enabled``."""

    enabled: bool = False
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def span(self, name: str, start: float, end: float) -> None:
        self.spans.append(Span(name, start, end))

    def wrap(self, layer: str, original: Callable) -> Callable:
        counter = COUNTERS.get(layer)
        control_plane = layer == "service.overhead"
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.enabled or (
                control_plane and args[1].get("type") in CONTROL_PLANE
            ):
                return original(*args, **kwargs)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.spans.append(Span(layer, start, time.perf_counter()))
            if counter is not None:
                counter(recorder.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self, layers: dict[str, tuple[str, ...]] = LAYERS) -> None:
        """Patch every entry point; idempotent per recorder."""
        if self._patches:
            return
        for layer, targets in layers.items():
            for target in targets:
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self.wrap(layer, original))
                else:
                    original = getattr(module, attr)
                    traced = self.wrap(layer, original)
                    for bound in _modules_binding(original):
                        self._patch(bound, attr, original, traced)

    def _patch(self, owner, attr: str, original, traced) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _modules_binding(function) -> Iterable[object]:
    """Every loaded ``repro`` module whose globals bind ``function`` under
    its own name (``from x import f`` copies the binding)."""
    name = function.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "repro" or module is None:
            continue
        if getattr(module, name, None) is function:
            yield module


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Seconds of self time per span name.

    A span's self time is its duration minus the union of the intervals
    of its direct children, where a child is a span nested inside it in
    time.  Summed over every name, self times add up to the duration of
    the root spans exactly.
    """
    ordered = sorted(spans, key=lambda s: (s.start, -s.end))
    totals: dict[str, float] = {}
    stack: list[tuple[Span, list[tuple[float, float]]]] = []

    def close(entry: tuple[Span, list[tuple[float, float]]]) -> None:
        span, children = entry
        totals[span.name] = totals.get(span.name, 0.0) + (
            span.end - span.start - _union_length(children)
        )

    for span in ordered:
        while stack and stack[-1][0].end <= span.start:
            close(stack.pop())
        while stack and stack[-1][0].end < span.end:
            # Partial overlap: not nested, so the open span cannot be its
            # parent.  Close it; the newcomer becomes a sibling.
            close(stack.pop())
        if stack:
            stack[-1][1].append((span.start, span.end))
        stack.append((span, []))
    while stack:
        close(stack.pop())
    return totals


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def per_root_counts(spans: Iterable[Span], name: str) -> list[int]:
    """How many ``name`` spans lie inside each root span, in time order."""
    roots = sorted((s for s in spans if s.name == OP), key=lambda s: s.start)
    inner = sorted(s.start for s in spans if s.name == name)
    counts, index = [], 0
    for root in roots:
        while index < len(inner) and inner[index] < root.start:
            index += 1
        count = 0
        while index < len(inner) and inner[index] <= root.end:
            count += 1
            index += 1
        counts.append(count)
    return counts


def root_seconds(spans: Iterable[Span]) -> float:
    """Traced wall time: the summed duration of the root spans."""
    return sum(span.end - span.start for span in spans if span.name == OP)
