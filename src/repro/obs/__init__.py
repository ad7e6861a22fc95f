"""Observability: tracing, metrics and sinks for the analysis pipeline.

The subsystem has three parts (all stdlib-only):

* :mod:`repro.obs.trace` — a span tracer (`Tracer.span("pointer.vfg",
  module=...)`) that produces a hierarchical wall-time trace exportable
  as Chrome ``trace_event`` JSON, a human-readable tree or self times;
* :mod:`repro.obs.metrics` — a registry of counters/gauges/histograms
  with deterministic worker-snapshot merging (supersedes the ad-hoc
  ``Report.engine_stats`` counters);
* :mod:`repro.obs.sinks` — JSONL run records, Prometheus text
  exposition, and the ``valuecheck stats`` summary table.

On top sit the *operational* modules the analysis service uses:
:mod:`repro.obs.journal` (bounded lifecycle event log),
:mod:`repro.obs.slo` (sliding-window latency/error-budget tracking
behind ``health``), :mod:`repro.obs.tracestore` (the ring of completed
per-request traces behind the ``trace`` request, whose summed self
times are ``stats.layers``) and :mod:`repro.obs.stitch` (one
cross-process timeline from the router's and workers' records).
:mod:`repro.obs.profiler` is the sampling profiler behind
``valuecheck profile``'s flamegraph stacks.

Instrumentation sites use the **ambient telemetry** established with
:func:`use`::

    telemetry = Telemetry.fresh()
    with use(telemetry):
        project = Project.from_sources(sources)   # holds text; lowers nothing
        report = ValueCheck().analyze(project)    # core.pipeline and below,
                                                  # frontend.* / ir.lower per miss

Deep pipeline code calls the module-level :func:`span` /
:func:`traced` / :func:`metrics` helpers, which no-op (cheaply) when no
telemetry is active — the un-instrumented fast path stays free.  Span
names are the benchmark's layer names (docs/OBSERVABILITY.md).  Metrics are
namespaced *per run*: each ``ValueCheck.analyze`` call records into a
fresh registry (re-entrant calls never double-count), while spans join
whatever tracer is ambient so one trace can cover the whole pipeline.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.clock import monotonic, wall_clock
from repro.obs.journal import Event, EventJournal
from repro.obs.metrics import (
    DAEMON_WINDOW,
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    base_name,
    metric_key,
    parse_key,
    summarize,
    summarize_snapshot,
)
from repro.obs.provenance import (
    PROVENANCE_SCHEMA_VERSION,
    ProvenanceLog,
    ProvenanceRecord,
    PrunerVerdict,
    detection_record,
    render_record,
    render_records,
)
from repro.obs.profiler import SamplingProfiler, fold_frame
from repro.obs.sinks import (
    layer_table,
    read_jsonl,
    render_stats_table,
    rule_candidates,
    rule_kills,
    to_prometheus,
    write_jsonl,
)
from repro.obs.slo import DEFAULT_SLOS, SloConfig, SloTracker, build_trackers
from repro.obs.stitch import TracePart, make_part, stitch, stitch_chrome
from repro.obs.trace import NULL_SPAN, Span, Tracer
from repro.obs.tracestore import TraceRecord, TraceStore


@dataclass
class Telemetry:
    """One tracer + one metrics registry, travelling together."""

    tracer: Tracer = field(default_factory=Tracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @classmethod
    def fresh(cls, trace: bool = True) -> "Telemetry":
        return cls(tracer=Tracer(enabled=trace), metrics=MetricsRegistry())


# The ambient telemetry stack, one per thread: the pushing thread's own
# instrumentation always resolves to *its* telemetry, even while sibling
# service workers run other requests under their own.  A thread that
# never pushed sees no telemetry.  Pushes and pops pair up LIFO within
# a thread, so ``use`` pops its own entry.
_local = threading.local()


def _local_stack() -> list[Telemetry]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


def current() -> Telemetry | None:
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def use(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Make ``telemetry`` ambient on this thread for the duration of the
    block."""
    stack = _local_stack()
    stack.append(telemetry)
    try:
        yield telemetry
    finally:
        stack.pop()


def span(name: str, **attrs):
    """A span on the ambient tracer, or a shared no-op context manager."""
    telemetry = current()
    if telemetry is None or not telemetry.tracer.enabled:
        return NULL_SPAN
    return telemetry.tracer.span(name, **attrs)


def traced(name: str):
    """Decorator: run every call of the function inside a ``name`` span
    on the ambient tracer."""

    def decorate(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with span(name):
                return function(*args, **kwargs)

        return wrapper

    return decorate


def metrics() -> MetricsRegistry | None:
    """The ambient metrics registry, if any."""
    telemetry = current()
    return telemetry.metrics if telemetry is not None else None


__all__ = [
    "DAEMON_WINDOW",
    "DEFAULT_SLOS",
    "Event",
    "EventJournal",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "PROVENANCE_SCHEMA_VERSION",
    "ProvenanceLog",
    "ProvenanceRecord",
    "PrunerVerdict",
    "SamplingProfiler",
    "SloConfig",
    "SloTracker",
    "Span",
    "Telemetry",
    "TracePart",
    "TraceRecord",
    "TraceStore",
    "Tracer",
    "base_name",
    "build_trackers",
    "current",
    "fold_frame",
    "detection_record",
    "layer_table",
    "make_part",
    "metric_key",
    "metrics",
    "monotonic",
    "parse_key",
    "stitch",
    "stitch_chrome",
    "read_jsonl",
    "render_record",
    "render_records",
    "render_stats_table",
    "rule_candidates",
    "rule_kills",
    "span",
    "summarize",
    "summarize_snapshot",
    "to_prometheus",
    "traced",
    "use",
    "wall_clock",
    "write_jsonl",
]
