"""Service observability: trace propagation, event journal, SLO health.

End-to-end coverage of the operational layer: a request's complete span
tree retrievable via the ``trace`` request (with a client-propagated
trace id), deterministic journal ordering under concurrency, ring
truncation surfaced through the ``events`` request, eviction events,
and the upgraded ``health`` schema.
"""

import threading
import time

import pytest

from repro.obs import EventJournal, TraceStore
from repro.service import AnalysisService, ServiceClient, ServiceConfig, serve_tcp, wait_for_port
from tests.test_perfbench_hooks import REQUEST_HOPS, _load_spans

SIMPLE = {"m.c": "int f(void)\n{\n    int dead;\n    dead = 1;\n    return 0;\n}\n"}


def open_simple(service, project_id="p", trace_id=None):
    request = {
        "id": 0,
        "type": "open_project",
        "params": {"sources": dict(SIMPLE), "project_id": project_id},
    }
    if trace_id is not None:
        request["trace_id"] = trace_id
    response = service.submit(request)
    assert response["ok"], response
    return response


@pytest.fixture
def service():
    service = AnalysisService(ServiceConfig(workers=2)).start()
    yield service
    service.shutdown()


class TestTracePropagation:
    def test_client_trace_id_echoed_and_trace_retrievable(self, service):
        open_simple(service)
        response = service.submit(
            {
                "id": 1,
                "type": "analyze",
                "trace_id": "ci-run-42/3",
                "params": {"project_id": "p"},
            }
        )
        assert response["ok"] and response["trace_id"] == "ci-run-42/3"

        fetched = service.submit(
            {"id": 2, "type": "trace", "params": {"trace_id": "ci-run-42/3"}}
        )
        assert fetched["ok"], fetched
        trace = fetched["result"]
        assert trace["type"] == "analyze" and trace["ok"] is True
        names = [span["name"] for span in trace["spans"]]
        # Queue wait, the request root, AND the engine spans deep in the
        # pipeline all landed on this request's own timeline.
        assert "queue.wait" in names
        assert "service.request" in names
        assert "session.lookup" in names
        assert "engine.run" in names

    def test_server_assigns_trace_id_when_client_sends_none(self, service):
        response = open_simple(service)
        assert response["trace_id"].startswith("srv-")
        fetched = service.submit(
            {"id": 1, "type": "trace", "params": {"trace_id": response["trace_id"]}}
        )
        assert fetched["ok"] and fetched["result"]["type"] == "open_project"

    def test_trace_by_server_request_number(self, service):
        open_simple(service)  # request 1
        fetched = service.submit(
            {"id": 1, "type": "trace", "params": {"request_id": 1}}
        )
        assert fetched["ok"] and fetched["result"]["request_id"] == 1

    def test_unknown_trace_is_a_protocol_error(self, service):
        response = service.submit(
            {"id": 1, "type": "trace", "params": {"trace_id": "never-sent"}}
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "unknown_trace"

    def test_trace_params_validated(self, service):
        both = service.submit(
            {"id": 1, "type": "trace", "params": {"request_id": 1, "trace_id": "x"}}
        )
        assert both["error"]["code"] == "invalid_params"
        neither = service.submit({"id": 2, "type": "trace", "params": {}})
        assert neither["error"]["code"] == "invalid_params"

    def test_chrome_export_separates_concurrent_requests(self, service):
        """Two requests overlapping on the 2-worker pool render on
        distinct Chrome tracks even if they shared a worker thread."""
        open_simple(service)
        barrier = threading.Barrier(2, timeout=10)

        def overlapping(params):
            barrier.wait()  # both requests inside handlers at once
            time.sleep(0.01)
            return {}

        service._handlers["explain"] = overlapping
        responses = []

        def submit(tid):
            responses.append(
                service.submit(
                    {"id": tid, "type": "explain", "trace_id": tid, "params": {}}
                )
            )

        threads = [
            threading.Thread(target=submit, args=(f"c{n}",)) for n in (1, 2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert all(r["ok"] for r in responses), responses

        records = [
            service.traces.records_by_trace_id("c1")[-1],
            service.traces.records_by_trace_id("c2")[-1],
        ]
        chrome = service.traces.to_chrome(records)
        tids = {}
        for event in chrome["traceEvents"]:
            if event["ph"] == "X":
                tids.setdefault(event["args"]["trace_id"], set()).add(event["tid"])
        assert tids["c1"].isdisjoint(tids["c2"])

    def test_trace_store_is_bounded(self):
        service = AnalysisService(ServiceConfig(workers=1))
        service.traces = TraceStore(capacity=2)
        service.start()
        try:
            open_simple(service)
            for n in range(3):
                response = service.submit(
                    {"id": n, "type": "analyze", "params": {"project_id": "p"}}
                )
                assert response["ok"]
            stats = service.traces.stats()
            assert stats["retained"] == 2 and stats["evicted"] >= 1
            # The oldest (the open_project) fell out of the ring.
            gone = service.submit(
                {"id": 9, "type": "trace", "params": {"request_id": 1}}
            )
            assert gone["error"]["code"] == "unknown_trace"
        finally:
            service.shutdown()


class TestEventJournal:
    def test_requests_journal_start_and_end_in_order(self, service):
        open_simple(service)
        response = service.submit(
            {"id": 1, "type": "events", "params": {"kind": "request"}}
        )
        assert response["ok"], response
        events = response["result"]["events"]
        kinds = [event["kind"] for event in events]
        assert kinds == ["request.start", "request.end"]
        assert events[0]["trace_id"] == events[1]["trace_id"]
        assert events[1]["outcome"] == "ok"
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs)

    def test_session_lifecycle_events(self, service):
        open_simple(service)
        response = service.submit(
            {"id": 1, "type": "events", "params": {"kind": "session"}}
        )
        events = response["result"]["events"]
        assert [event["kind"] for event in events] == ["session.opened"]
        assert events[0]["project_id"] == "p"

    def test_eviction_emits_journal_event(self):
        service = AnalysisService(ServiceConfig(workers=1, max_sessions=1)).start()
        try:
            open_simple(service, project_id="first")
            open_simple(service, project_id="second")
            response = service.submit(
                {"id": 1, "type": "events", "params": {"kind": "session.evicted"}}
            )
            events = response["result"]["events"]
            assert len(events) == 1
            assert events[0]["project_id"] == "first"
            assert events[0]["reason"] == "max_sessions"
            # Satellite contract: the counter moved with the event.
            counters = service.metrics.counters_by_name("service.sessions.evicted")
            assert counters.get("service.sessions.evicted", 0) == 1
        finally:
            service.shutdown()

    def test_ring_truncation_visible_through_events_request(self):
        service = AnalysisService(ServiceConfig(workers=1))
        service.journal = service.sessions.journal = EventJournal(capacity=4)
        service.start()
        try:
            open_simple(service)
            for n in range(3):
                service.submit(
                    {"id": n, "type": "analyze", "params": {"project_id": "p"}}
                )
            response = service.submit({"id": 9, "type": "events", "params": {}})
            journal = response["result"]["journal"]
            assert journal["capacity"] == 4
            assert journal["dropped"] > 0
            assert journal["first_seq"] > 1
            assert len(response["result"]["events"]) == 4
        finally:
            service.shutdown()

    def test_since_cursor_pages_without_gaps(self, service):
        open_simple(service)
        service.submit({"id": 1, "type": "analyze", "params": {"project_id": "p"}})
        collected = []
        cursor = 0
        while True:
            page = service.submit(
                {"id": 2, "type": "events", "params": {"since": cursor, "limit": 2}}
            )["result"]["events"]
            if not page:
                break
            collected.extend(event["seq"] for event in page)
            cursor = page[-1]["seq"]
        assert collected == list(range(1, collected[-1] + 1))

    def test_queue_full_journalled(self):
        service = AnalysisService(
            ServiceConfig(workers=1, queue_capacity=1)
        ).start()
        try:
            release = threading.Event()
            started = threading.Event()

            def slow(params):
                started.set()
                release.wait(timeout=10)
                return {}

            service._handlers["explain"] = slow
            threads = [
                threading.Thread(
                    target=service.submit,
                    args=({"id": n, "type": "explain", "params": {}},),
                )
                for n in range(2)
            ]
            threads[0].start()
            assert started.wait(timeout=5)
            threads[1].start()
            deadline = time.monotonic() + 5
            while service._queue.qsize() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            rejected = service.submit({"id": 9, "type": "explain", "params": {}})
            assert rejected["error"]["code"] == "queue_full"
            release.set()
            for thread in threads:
                thread.join(timeout=10)
            events = service.submit(
                {"id": 10, "type": "events", "params": {"kind": "queue.full"}}
            )["result"]["events"]
            assert len(events) == 1 and events[0]["type"] == "explain"
        finally:
            service.shutdown()

    def test_journal_mirrored_to_jsonl(self, tmp_path):
        import json

        path = tmp_path / "events.jsonl"
        service = AnalysisService(
            ServiceConfig(workers=1, journal_path=str(path))
        ).start()
        try:
            open_simple(service)
        finally:
            service.shutdown()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [row["kind"] for row in rows]
        assert kinds[0] == "service.start"
        assert kinds[-1] == "service.shutdown"
        assert "request.start" in kinds and "session.opened" in kinds

    def test_concurrent_requests_yield_paired_events(self, service):
        """Under concurrency every request still journals exactly one
        start and one end, and seqs stay unique and totally ordered."""
        open_simple(service)

        def ping(params):
            time.sleep(0.002)
            return {}

        service._handlers["explain"] = ping
        threads = [
            threading.Thread(
                target=service.submit,
                args=({"id": n, "type": "explain", "params": {}},),
            )
            for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        events = service.submit(
            {"id": 99, "type": "events", "params": {"kind": "request"}}
        )["result"]["events"]
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs) and len(seqs) == len(set(seqs))
        starts = {
            event["trace_id"] for event in events if event["kind"] == "request.start"
        }
        ends = {
            event["trace_id"] for event in events if event["kind"] == "request.end"
        }
        assert starts == ends and len(starts) == 9  # open_project + 8 pings


class TestHealthUpgrade:
    def test_health_reports_slos_journal_traces(self, service):
        open_simple(service)
        health = service.submit({"id": 1, "type": "health", "params": {}})["result"]
        assert health["status"] == "ok"
        slo_names = {slo["name"] for slo in health["slos"]}
        assert {"requests", "warm_diff"} <= slo_names
        requests_slo = next(s for s in health["slos"] if s["name"] == "requests")
        assert requests_slo["status"] == "ok"
        assert requests_slo["window_count"] >= 1
        assert health["breached_slos"] == []
        assert health["journal"]["events"] >= 1
        assert health["traces"]["retained"] >= 1
        assert "profiler" not in health

    def test_breached_slo_degrades_health(self):
        from repro.obs import SloConfig

        service = AnalysisService(
            ServiceConfig(
                workers=1,
                slos=(SloConfig(name="strict", target_seconds=0.0, error_budget=0.001),),
            )
        ).start()
        try:
            open_simple(service)  # any nonzero latency busts a 0s target
            health = service.submit({"id": 1, "type": "health", "params": {}})["result"]
            assert health["breached_slos"] == ["strict"]
            assert health["status"] == "degraded"
        finally:
            service.shutdown()

    def test_stats_carries_layers(self, service):
        open_simple(service)
        assert service.submit(
            {"id": 1, "type": "analyze", "params": {"project_id": "p"}}
        )["ok"]
        stats = service.submit({"id": 2, "type": "stats", "params": {}})["result"]
        layers = stats["layers"]
        assert {"core.pipeline", "service.request", "queue.wait"} <= set(layers)
        # One vocabulary: perfbench's layer names plus the request hops.
        vocabulary = set(_load_spans().LAYERS) | REQUEST_HOPS
        assert set(layers) <= vocabulary, set(layers) - vocabulary
        assert all(seconds >= 0 for seconds in layers.values())
        # Largest first, the order `valuecheck top` prints.
        assert list(layers.values()) == sorted(layers.values(), reverse=True)
        assert "profile_phases" not in stats


class TestOverTcp:
    def test_trace_round_trip_through_client(self):
        service, server = serve_tcp(ServiceConfig(workers=2), port=0, block=False)
        host, port = server.server_address[:2]
        wait_for_port(host, port)
        try:
            with ServiceClient(host=host, port=port) as client:
                client.open_project(
                    sources=dict(SIMPLE), project_id="p", trace_id="tcp-open"
                )
                assert client.last_trace_id == "tcp-open"
                client.analyze("p", trace_id="tcp-analyze")
                trace = client.trace(trace_id="tcp-analyze", chrome=True)
                names = [span["name"] for span in trace["spans"]]
                assert "service.request" in names and "queue.wait" in names
                chrome = trace["chrome"]["traceEvents"]
                assert any(event["ph"] == "X" for event in chrome)
                assert any(event["ph"] == "M" for event in chrome)

                events = client.events(kind="request")
                kinds = [event["kind"] for event in events["events"]]
                assert kinds == [
                    "request.start",
                    "request.end",
                    "request.start",
                    "request.end",
                ]
        finally:
            service.shutdown()
            server.server_close()
