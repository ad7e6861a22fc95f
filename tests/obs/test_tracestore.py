"""Trace store: retention, lookup, Chrome export track separation."""

from __future__ import annotations

import pytest

from repro.obs import TraceRecord, TraceStore
from repro.obs.trace import Span
from repro.obs.tracestore import PIN_SLOW_SECONDS


def _record(
    request_id: int,
    trace_id: str,
    *,
    thread_id: int = 0,
    kind: str = "analyze",
    ok: bool = True,
    seconds: float = 0.25,
):
    spans = (
        Span(
            name="service.request",
            span_id=0,
            parent_id=None,
            thread_id=thread_id,
            start=0.0,
            end=0.25,
        ),
        Span(
            name="engine",
            span_id=1,
            parent_id=0,
            thread_id=thread_id,
            start=0.05,
            end=0.2,
            attrs={"modules": 3},
        ),
    )
    return TraceRecord(
        request_id=request_id,
        trace_id=trace_id,
        kind=kind,
        ok=ok,
        seconds=seconds,
        spans=spans,
    )


class TestRetention:
    def test_capacity_evicts_oldest(self):
        store = TraceStore(capacity=2)
        for request_id in (1, 2, 3):
            store.put(_record(request_id, f"t{request_id}"))
        assert store.get(1) is None
        assert store.get(2) is not None and store.get(3) is not None
        assert store.stats() == {
            "retained": 2,
            "capacity": 2,
            "evicted": 1,
            "pinned": 0,
            "pin_capacity": 1,
            "pinned_total": 0,
        }

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)

    def test_records_by_trace_id_returns_every_fragment_oldest_first(self):
        # A migration replay and the forwarded request itself both land
        # under one trace id; the stitcher wants all of them.
        store = TraceStore()
        store.put(_record(1, "shared", kind="open_project"))
        store.put(_record(2, "other"))
        store.put(_record(3, "shared"))
        fragments = store.records_by_trace_id("shared")
        assert [record.request_id for record in fragments] == [1, 3]
        assert store.records_by_trace_id("missing") == []


class TestTailPinning:
    def test_errored_traces_survive_eviction(self):
        store = TraceStore(capacity=3)
        store.put(_record(1, "err", ok=False))
        for request_id in (2, 3, 4, 5):
            store.put(_record(request_id, f"t{request_id}"))
        # The error is the oldest record, yet it outlives the ok traffic.
        assert store.get(1) is not None
        assert store.get(2) is None and store.get(3) is None

    def test_slow_traces_survive_eviction(self):
        store = TraceStore(capacity=3)
        store.put(_record(1, "slow", seconds=PIN_SLOW_SECONDS))
        for request_id in (2, 3, 4, 5):
            store.put(_record(request_id, f"t{request_id}", seconds=0.1))
        assert store.get(1) is not None
        assert store.get(1).seconds == PIN_SLOW_SECONDS

    def test_fast_ok_traces_are_not_pinned(self):
        store = TraceStore(capacity=2)
        store.put(_record(1, "fast", seconds=0.1))
        store.put(_record(2, "t2"))
        store.put(_record(3, "t3"))
        assert store.get(1) is None

    def test_pin_budget_releases_oldest_pin(self):
        store = TraceStore(capacity=8)  # a quarter of the ring: 2 pins
        for request_id in (1, 2, 3):
            store.put(_record(request_id, f"e{request_id}", ok=False))
        # Pin budget is 2: the oldest error (1) fell back into normal
        # eviction order and churns out first under pressure.
        for request_id in range(4, 10):
            store.put(_record(request_id, f"t{request_id}"))
        assert store.get(1) is None
        assert store.get(2) is not None and store.get(3) is not None

    def test_all_pinned_ring_still_bounded(self):
        store = TraceStore(capacity=2)
        for request_id in (1, 2, 3):
            store.put(_record(request_id, f"e{request_id}", ok=False))
        stats = store.stats()
        assert stats["retained"] == 2
        assert store.get(1) is None

    def test_stats_expose_pin_counters(self):
        store = TraceStore(capacity=8)
        store.put(_record(1, "e1", ok=False))
        stats = store.stats()
        assert stats["pinned"] == 1
        assert stats["pinned_total"] == 1
        assert stats["pin_capacity"] == 2

    def test_default_store_pins_errors_and_slow_traces(self):
        store = TraceStore(capacity=8)  # room for two pins
        store.put(_record(1, "err", ok=False))
        store.put(_record(2, "slow", seconds=5.0))
        for request_id in range(3, 13):
            store.put(_record(request_id, f"t{request_id}"))
        assert store.get(1) is not None and store.get(2) is not None
        assert store.stats()["pinned"] == 2


class TestSelfTimes:
    def test_summed_per_record_although_span_ids_repeat(self):
        # Every record's spans are ids 0 (root, 0.25 s) and 1 (child,
        # 0.15 s): pooling the records would let one record's child
        # cover another record's root.
        store = TraceStore()
        store.put(_record(1, "a"))
        store.put(_record(2, "b"))
        totals = store.self_times()
        assert totals == pytest.approx({"service.request": 0.2, "engine": 0.3})

    def test_empty_store(self):
        assert TraceStore().self_times() == {}


class TestAsDict:
    def test_round_trippable_shape(self):
        row = _record(7, "ci-42").as_dict()
        assert row["request_id"] == 7
        assert row["trace_id"] == "ci-42"
        assert row["span_count"] == 2
        assert row["spans"][0]["name"] == "service.request"
        assert row["spans"][1]["attrs"] == {"modules": "3"}


class TestChromeExport:
    def test_concurrent_requests_get_distinct_tids(self):
        # Two requests served back-to-back by the SAME worker thread
        # must still render on separate tracks.
        store = TraceStore()
        store.put(_record(1, "a", thread_id=0))
        store.put(_record(2, "b", thread_id=0))
        chrome = store.to_chrome()
        spans = [event for event in chrome["traceEvents"] if event["ph"] == "X"]
        tids_by_request = {}
        for event in spans:
            tids_by_request.setdefault(event["args"]["request_id"], set()).add(
                event["tid"]
            )
        assert tids_by_request["1"].isdisjoint(tids_by_request["2"])

    def test_thread_name_metadata_labels_tracks(self):
        store = TraceStore()
        store.put(_record(5, "x", kind="analyze_diff"))
        chrome = store.to_chrome()
        meta = [event for event in chrome["traceEvents"] if event["ph"] == "M"]
        assert meta and meta[0]["name"] == "thread_name"
        assert "request 5 analyze_diff" in meta[0]["args"]["name"]

    def test_multi_thread_request_keeps_thread_split(self):
        store = TraceStore()
        spans = (
            Span("service.request", 0, None, 0, 0.0, 0.5),
            Span("module", 1, 0, 1, 0.1, 0.3),
            Span("module", 2, 0, 2, 0.1, 0.3),
        )
        store.put(
            TraceRecord(
                request_id=1, trace_id="mt", kind="analyze", ok=True, seconds=0.5,
                spans=spans,
            )
        )
        chrome = store.to_chrome()
        events = [event for event in chrome["traceEvents"] if event["ph"] == "X"]
        assert len({event["tid"] for event in events}) == 3

    def test_subset_export(self):
        store = TraceStore()
        store.put(_record(1, "a"))
        store.put(_record(2, "b"))
        chrome = store.to_chrome([store.get(2)])
        events = [event for event in chrome["traceEvents"] if event["ph"] == "X"]
        assert {event["args"]["request_id"] for event in events} == {"2"}
        assert chrome["displayTimeUnit"] == "ms"
