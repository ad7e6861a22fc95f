"""Span-based tracer: a hierarchical wall-time trace of one pipeline run.

Usage::

    tracer = Tracer()
    with tracer.span("core.pipeline", project="openssl"):
        with tracer.span("pointer.andersen", module="ssl.c"):
            ...
    print(tracer.render_tree())
    Path("trace.json").write_text(json.dumps(tracer.to_chrome()))

Spans nest per thread (each thread keeps its own open-span stack), so
worker threads produce their own span roots; the Chrome export carries a
``tid`` per thread, which is how ``chrome://tracing`` / Perfetto lay the
tracks out.  Process-pool workers record into a tracer of their own and
ship its spans back; the engine grafts them under its ``engine.run``
span (see :mod:`repro.engine.worker`).

:func:`self_times` answers "where did the time go": per span name, the
time spent in that span and in none of its children.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.obs.clock import monotonic, wall_clock


@dataclass
class Span:
    """One completed (or still-open) timed region."""

    name: str
    span_id: int
    parent_id: int | None
    thread_id: int
    start: float  # seconds since tracer epoch
    end: float | None = None
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def as_dict(self) -> dict:
        """A plain JSON-ready form (what the service's trace store keeps)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "start": round(self.start, 9),
            "seconds": round(self.seconds, 9),
            "attrs": {str(k): str(v) for k, v in self.attrs.items()},
        }


class Tracer:
    """Thread-safe span recorder with Chrome trace-event export."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        # Monotonic time of the epoch: span starts are seconds after it.
        self.epoch = monotonic()
        # Wall-clock time of the epoch.  Span starts are monotonic-relative
        # (per-process arbitrary zero); this is the cross-process anchor a
        # trace stitcher uses to place two processes' spans on one timeline.
        self.wall_epoch = wall_clock()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._next_id = 0
        self._stacks = threading.local()
        # Stable small ints per OS thread id, in order of first appearance.
        self._thread_ids: dict[int, int] = {}

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def _thread_id(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            if ident not in self._thread_ids:
                self._thread_ids[ident] = len(self._thread_ids)
            return self._thread_ids[ident]

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span | None]:
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = Span(
            name=name,
            span_id=span_id,
            parent_id=parent,
            thread_id=self._thread_id(),
            start=monotonic() - self.epoch,
            attrs=dict(attrs),
        )
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record.end = monotonic() - self.epoch
            with self._lock:
                self._spans.append(record)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: int | None = None,
        **attrs,
    ) -> Span | None:
        """Record an already-measured region as a completed span.

        For costs measured outside any ``with span(...)`` block — e.g. a
        request's queue wait, which elapses before a worker thread ever
        touches it.  ``start``/``end`` are seconds relative to the tracer
        epoch (what :meth:`elapsed` returns).
        """
        if not self.enabled:
            return None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = Span(
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            thread_id=self._thread_id(),
            start=start,
            end=end,
            attrs=dict(attrs),
        )
        with self._lock:
            self._spans.append(record)
        return record

    def elapsed(self) -> float:
        """Seconds since the tracer epoch (the `start` of a span opened now)."""
        return monotonic() - self.epoch

    # -- views -----------------------------------------------------------

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def span_names(self) -> set[str]:
        return {span.name for span in self.spans()}

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name (see :func:`self_times`)."""
        return self_times(self.spans())

    def children_of(self, span_id: int | None) -> list[Span]:
        return sorted(
            (span for span in self.spans() if span.parent_id == span_id),
            key=lambda span: span.start,
        )

    # -- exports ---------------------------------------------------------

    def to_chrome(self) -> dict:
        """Chrome ``trace_event`` format (load in chrome://tracing or
        https://ui.perfetto.dev): one complete ("X") event per span, with
        microsecond timestamps relative to the tracer epoch."""
        events = [
            chrome_event(span.name, span.start, span.seconds, 0, span.thread_id, span.attrs)
            for span in self.spans()
        ]
        events.sort(key=lambda event: (event["ts"], event["tid"], event["name"]))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def render_tree(self, max_children: int = 40) -> str:
        """Human-readable span tree (roots in start order)."""
        lines: list[str] = []

        def emit(span: Span, depth: int) -> None:
            attrs = ""
            if span.attrs:
                inner = ", ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
                attrs = f"  [{inner}]"
            lines.append(f"{'  ' * depth}{span.name:<24} {span.seconds * 1e3:9.3f} ms{attrs}")
            children = self.children_of(span.span_id)
            for child in children[:max_children]:
                emit(child, depth + 1)
            if len(children) > max_children:
                lines.append(f"{'  ' * (depth + 1)}… {len(children) - max_children} more span(s)")

        for root in self.children_of(None):
            emit(root, 0)
        return "\n".join(lines)


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Seconds of self time per span name over one tracer's spans.

    A span's self time is its duration minus the union of its direct
    children's intervals (clipped to the span), so parallel children
    count once and nested spans never count twice.  Summed over every
    name, self times add up to the duration of the root spans.  Span ids
    are per tracer: spans from several tracers are summed per tracer.
    """
    spans = list(spans)
    children: dict[int | None, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append((span.start, span.end))
    totals: dict[str, float] = {}
    for span in spans:
        covered = _union_length(
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.span_id, ())
        )
        totals[span.name] = totals.get(span.name, 0.0) + span.seconds - covered
    return totals


def _union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def chrome_event(name: str, start: float, seconds: float, pid: int, tid: int, args) -> dict:
    """One Chrome complete ("X") event; ``start``/``seconds`` in seconds,
    ``args`` stringified."""
    return {
        "name": name,
        "ph": "X",
        "ts": round(start * 1e6, 3),
        "dur": round(seconds * 1e6, 3),
        "pid": pid,
        "tid": tid,
        "cat": "repro",
        "args": {str(k): str(v) for k, v in args.items()},
    }


def thread_name_event(pid: int, tid: int, name: str) -> dict:
    """A Chrome metadata ("M") event naming one track."""
    return {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": name}}


#: Reusable "tracing off" context manager (avoids allocating one per call).
NULL_SPAN = nullcontext(None)
