"""Cross-process trace stitching for the routed topology.

A request that enters through the router leaves trace records in more
than one process: the router records the forward hop (and any migration
replay) under the request's trace id, and the worker that served it
records the queue wait plus the engine pipeline under the same id.  A
session migrated mid-request even splits its worker-side records across
two workers.  Each process's spans are timestamped relative to its own
tracer epoch — an arbitrary per-process monotonic zero — so they cannot
be overlaid directly.

This module merges those per-process fragments into **one timeline**:

* every fragment arrives as a :class:`TracePart` — a process label, a
  distinct ``pid``, and the trace records that process retained;
* each record carries ``epoch_ts``, the wall-clock time of its tracer's
  epoch; the stitcher picks the earliest epoch as the stitched zero and
  shifts every span by its record's **clock offset** (``epoch_ts -
  root_ts``), so spans from different processes land where they really
  happened relative to each other;
* the merged span list is deterministic (sorted on corrected start,
  then process, record, span id) and each span is annotated with the
  process it came from; worker root spans carry the propagated
  ``remote_parent`` link back to the router span that forwarded them;
* the Chrome export keeps one ``pid`` per process and **preserves** each
  process's ``tid``s (pid disambiguates, so threads keep their identity),
  with ``process_name``/``thread_name`` metadata naming every track.

The router's ``trace`` handler is the main caller: it collects hits from
its own store and every live worker, wraps them in parts, and returns
``stitch(parts)`` — one answer for one trace id, whatever the topology
did to the request.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.trace import chrome_event, thread_name_event


@dataclass(frozen=True)
class TracePart:
    """One process's contribution to a stitched trace.

    ``records`` are JSON-ready trace-record dicts (what
    :meth:`~repro.obs.tracestore.TraceRecord.as_dict` produces — also the
    wire form a worker's ``trace`` response carries, so router-local and
    remote fragments stitch identically).
    """

    process: str
    pid: int
    records: tuple[dict, ...]


def _as_record_dict(record) -> dict:
    if hasattr(record, "as_dict"):
        return record.as_dict()
    return dict(record)


def _record_epoch(record: dict) -> float:
    """Wall-clock time of this record's tracer epoch.

    Records written before ``epoch_ts`` existed carry 0.0; approximate
    their epoch from the wall-clock finish time minus the handled
    duration so old traces still land near the right place.
    """
    epoch = record.get("epoch_ts") or 0.0
    if epoch:
        return float(epoch)
    return float(record.get("finished_ts", 0.0)) - float(record.get("seconds", 0.0))


def make_part(process: str, pid: int, records) -> TracePart:
    """Normalize records (dicts or TraceRecord objects) into a part."""
    return TracePart(
        process=process,
        pid=pid,
        records=tuple(_as_record_dict(record) for record in records),
    )


def _part_order(part: TracePart) -> tuple:
    # The router (the process that opened the root span) sorts first;
    # workers follow in label order, which the router builds as
    # ``worker-<slot>``.
    return (part.process != "router", part.process)


def stitch(
    parts: list[TracePart],
    trace_id: str | None = None,
    chrome: bool = False,
) -> dict:
    """Merge per-process trace fragments into one stitched timeline.

    Returns a JSON-ready dict shaped like a single trace record —
    ``trace_id``/``type``/``ok``/``seconds``/``spans`` — plus the
    stitching surface: ``stitched: true``, a per-process summary with
    each fragment's clock offset, and (when ``chrome``) a multi-process
    Chrome export.  Raises :class:`ValueError` when no part holds any
    record.
    """
    ordered = sorted(parts, key=_part_order)
    populated = [part for part in ordered if part.records]
    if not populated:
        raise ValueError("nothing to stitch: no part holds a trace record")

    root_ts = min(
        _record_epoch(record) for part in populated for record in part.records
    )
    if trace_id is None:
        trace_id = populated[0].records[-1].get("trace_id", "")

    merged_spans: list[dict] = []
    processes: list[dict] = []
    ok = True
    primary_kind: str | None = None
    finish = root_ts
    for part in populated:
        span_total = 0
        offsets: list[float] = []
        for record in part.records:
            offset = _record_epoch(record) - root_ts
            offsets.append(offset)
            ok = ok and bool(record.get("ok"))
            finish = max(finish, float(record.get("finished_ts", root_ts)))
            span_ctx = record.get("span_ctx") or {}
            for span in record.get("spans", ()):
                entry = dict(span)
                entry["process"] = part.process
                entry["ts"] = round(offset + float(span.get("start", 0.0)), 9)
                if (
                    span.get("parent_id") is None
                    and span_ctx.get("parent_span") is not None
                ):
                    entry["remote_parent"] = {
                        "process": span_ctx.get("origin", "router"),
                        "span_id": span_ctx["parent_span"],
                    }
                entry["request_id"] = record.get("request_id")
                merged_spans.append(entry)
                span_total += 1
            if primary_kind is None or part.process == "router":
                # The router's record names the client-visible request
                # type; without a router part the first worker record does.
                primary_kind = record.get("type", primary_kind)
        processes.append(
            {
                "process": part.process,
                "pid": part.pid,
                "records": len(part.records),
                "spans": span_total,
                "clock_offset": round(min(offsets), 9) if offsets else 0.0,
            }
        )

    merged_spans.sort(
        key=lambda span: (
            span["ts"],
            span["process"],
            span.get("request_id") or 0,
            span.get("span_id") or 0,
        )
    )
    result = {
        "trace_id": trace_id,
        "stitched": True,
        "type": primary_kind,
        "ok": ok,
        "seconds": round(max(finish - root_ts, 0.0), 6),
        "root_ts": round(root_ts, 6),
        "span_count": len(merged_spans),
        "processes": processes,
        "spans": merged_spans,
    }
    if chrome:
        result["chrome"] = stitch_chrome(populated, root_ts)
    return result


def stitch_chrome(parts: list[TracePart], root_ts: float | None = None) -> dict:
    """One Chrome trace-event JSON across processes.

    Each part keeps its own ``pid`` and its spans keep their original
    ``tid``s — the pid is what separates processes, so thread identity
    within a process survives the merge.  Timestamps are clock-offset
    corrected onto the shared ``root_ts`` zero.
    """
    ordered = sorted(parts, key=_part_order)
    populated = [part for part in ordered if part.records]
    if root_ts is None:
        root_ts = min(
            _record_epoch(record) for part in populated for record in part.records
        )
    events: list[dict] = []
    meta: list[dict] = []
    for part in populated:
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": part.pid,
                "tid": 0,
                "args": {"name": part.process},
            }
        )
        named_tids: set[int] = set()
        for record in part.records:
            offset = _record_epoch(record) - root_ts
            for span in record.get("spans", ()):
                tid = int(span.get("thread_id", 0))
                if tid not in named_tids:
                    named_tids.add(tid)
                    meta.append(thread_name_event(part.pid, tid, f"{part.process} t{tid}"))
                events.append(
                    chrome_event(
                        span.get("name", ""),
                        offset + float(span.get("start", 0.0)),
                        float(span.get("seconds", 0.0)),
                        part.pid,
                        tid,
                        {
                            "trace_id": record.get("trace_id", ""),
                            "request_id": record.get("request_id"),
                            "process": part.process,
                            **(span.get("attrs") or {}),
                        },
                    )
                )
    events.sort(
        key=lambda event: (event["ts"], event["pid"], event["tid"], event["name"])
    )
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}
