"""Bounded store of completed request traces, keyed by request and trace id.

The service runs each data-plane request under its own per-request
:class:`~repro.obs.trace.Tracer` (epoch = submit time, so queue wait is
on the timeline).  When the request finishes, the completed spans are
frozen into a :class:`TraceRecord` and parked here; clients fetch them
back with the ``trace`` service request using either the server-assigned
request id or the client-propagated ``trace_id``.

The store is a ring: the newest ``capacity`` traces are retained,
evictions are counted, and lookup of an evicted trace is a clean
``unknown_trace`` error at the protocol layer — never unbounded memory.

**Tail-based retention.**  The traces worth debugging are precisely the
ones a busy ring would churn out first: the slow outliers and the
errors.  The store *pins* errored records and those that took at
least :data:`PIN_SLOW_SECONDS` — eviction skips pinned entries and
removes the oldest unpinned record instead.  Pins are themselves
bounded to a quarter of the ring: when full, the oldest pin is released
back into the normal eviction order, so the store's total footprint
never exceeds ``capacity`` records.

``to_chrome()`` renders any subset of stored traces into one Chrome
trace-event JSON where **every (request, thread) pair gets its own
track** (distinct ``tid``), so two requests that ran concurrently on
the same worker thread still land on separate rows instead of
overprinting each other.  Thread-name metadata events label each track
with the request id and span-thread it came from.  Multi-process
stitched exports live in :mod:`repro.obs.stitch`, which assigns one
``pid`` per process on top of this per-track layout.

``self_times()`` is the daemon's answer to "where did the time go": the
self time per span name, summed over every retained record.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.obs.clock import wall_clock
from repro.obs.trace import Span, chrome_event, self_times, thread_name_event

#: A trace at least this slow (seconds) is pinned in the ring.
PIN_SLOW_SECONDS = 5.0


@dataclass(frozen=True)
class TraceRecord:
    """One finished request's spans plus identity and outcome.

    ``epoch_ts`` is the wall-clock time of the recording tracer's epoch
    (span ``start`` values are seconds after it) — the anchor a stitcher
    uses to clock-offset-correct spans from different processes onto one
    timeline.  ``span_ctx`` is the propagated cross-process span context
    (parent span id, originating process) when the request arrived via a
    router, else ``None``.
    """

    request_id: int
    trace_id: str
    kind: str
    ok: bool
    seconds: float
    finished_ts: float = field(default_factory=wall_clock)
    spans: tuple[Span, ...] = ()
    epoch_ts: float = 0.0
    span_ctx: dict | None = None

    def as_dict(self) -> dict:
        payload = {
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "type": self.kind,
            "ok": self.ok,
            "seconds": round(self.seconds, 6),
            "finished_ts": round(self.finished_ts, 6),
            "epoch_ts": round(self.epoch_ts, 6),
            "span_count": len(self.spans),
            "spans": [span.as_dict() for span in self.spans],
        }
        if self.span_ctx is not None:
            payload["span_ctx"] = dict(self.span_ctx)
        return payload


class TraceStore:
    """Thread-safe ring of the newest ``capacity`` completed traces."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._pin_budget = max(capacity // 4, 1)
        self._lock = threading.Lock()
        self._by_request: "OrderedDict[int, TraceRecord]" = OrderedDict()
        # Insertion-ordered pin set: oldest pin is released first when
        # the pin budget fills up.
        self._pinned: "OrderedDict[int, None]" = OrderedDict()
        self._evicted = 0
        self._pinned_total = 0

    def put(self, record: TraceRecord) -> None:
        with self._lock:
            self._by_request[record.request_id] = record
            self._by_request.move_to_end(record.request_id)
            if not record.ok or record.seconds >= PIN_SLOW_SECONDS:
                self._pinned[record.request_id] = None
                self._pinned_total += 1
                while len(self._pinned) > self._pin_budget:
                    # Oldest pin falls back into normal eviction order.
                    self._pinned.popitem(last=False)
            while len(self._by_request) > self.capacity:
                # Pins never fill the ring (their budget is at most the
                # capacity), so an unpinned victim always exists.
                victim = next(
                    request_id
                    for request_id in self._by_request
                    if request_id not in self._pinned
                )
                del self._by_request[victim]
                self._evicted += 1

    def get(self, request_id: int) -> TraceRecord | None:
        with self._lock:
            return self._by_request.get(request_id)

    def records_by_trace_id(self, trace_id: str) -> list[TraceRecord]:
        """*Every* retained record carrying this trace id, oldest first.

        One logical request can leave several records under one trace id
        — e.g. a router-replayed ``open_project`` (migration) followed by
        the forwarded request itself — and a stitcher wants them all.
        """
        with self._lock:
            return [
                record
                for record in self._by_request.values()
                if record.trace_id == trace_id
            ]

    def records(self) -> list[TraceRecord]:
        """All retained records, oldest first."""
        with self._lock:
            return list(self._by_request.values())

    def stats(self) -> dict:
        with self._lock:
            return {
                "retained": len(self._by_request),
                "capacity": self.capacity,
                "evicted": self._evicted,
                "pinned": len(self._pinned),
                "pin_capacity": self._pin_budget,
                "pinned_total": self._pinned_total,
            }

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name over the retained records.

        Computed per record, then summed: span ids restart in every
        request's tracer, so one record's ids say nothing about another's.
        """
        totals: dict[str, float] = {}
        for record in self.records():
            for name, seconds in self_times(record.spans).items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    # -- export ----------------------------------------------------------

    def to_chrome(self, records: list[TraceRecord] | None = None, pid: int = 0) -> dict:
        """Chrome trace-event JSON over ``records`` (default: everything).

        Requests are separate logical timelines even when their spans ran
        on the same OS worker thread, so the ``tid`` is assigned per
        (request, span-thread) pair — concurrent requests render on
        distinct tracks.  A thread-name metadata event ("M") labels each
        track ``request <id> <type> / t<thread>``.  ``pid`` stamps every
        event (one process per store; stitched multi-process exports pass
        each process's own).
        """
        if records is None:
            records = self.records()
        events: list[dict] = []
        meta: list[dict] = []
        next_tid = 0
        for record in records:
            track_ids: dict[int, int] = {}
            for span in record.spans:
                tid = track_ids.get(span.thread_id)
                if tid is None:
                    tid = next_tid
                    next_tid += 1
                    track_ids[span.thread_id] = tid
                    meta.append(
                        thread_name_event(
                            pid, tid, f"request {record.request_id} {record.kind} / t{span.thread_id}"
                        )
                    )
                events.append(
                    chrome_event(
                        span.name,
                        span.start,
                        span.seconds,
                        pid,
                        tid,
                        {
                            "trace_id": record.trace_id,
                            "request_id": record.request_id,
                            **span.attrs,
                        },
                    )
                )
        events.sort(key=lambda event: (event["ts"], event["tid"], event["name"]))
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}
