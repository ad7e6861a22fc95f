"""The cluster observability plane end-to-end.

One ``trace`` request against the routed topology must return the full
cross-process story: the router's forward hop and the worker's queue
wait + engine pipeline on one clock-offset-corrected timeline — and when
a session migrated mid-request, the replay hop and both workers'
fragments too.  ``events`` must be the stably merged cluster stream
with gap-free per-source cursors, ``health`` must attribute SLO burn to
shards and count each shard's forwarded requests, and ``valuecheck top``
must turn those counts into per-shard rates.
"""

import time

import pytest

from repro.obs.clock import monotonic
from repro.service import (
    Router,
    RouterConfig,
    ServiceClient,
    ServiceError,
    ServiceServer,
    WorkerSpec,
)

SOURCES = {
    "app.c": (
        "int status(void)\n{\n    return 1;\n}\n"
        "\n"
        "int run(void)\n{\n    int r;\n    r = status();\n"
        "    if (r) {\n        return 2;\n    }\n    return 0;\n}\n"
    ),
    "util.c": (
        "int helper(void)\n{\n    int dead;\n    dead = 7;\n    return 3;\n}\n"
    ),
}


@pytest.fixture(autouse=True)
def fresh_engine_cache():
    from repro.engine import DEFAULT_CACHE

    DEFAULT_CACHE.clear()
    yield


@pytest.fixture(scope="module")
def routed():
    """One shared 2-worker router."""
    router = Router(
        RouterConfig(
            workers=2,
            spec=WorkerSpec(threads=1, max_sessions=4),
            probe_interval=0.5,
            probe_timeout=3.0,
        )
    ).start()
    server = ServiceServer(router, port=0)
    server.serve_background()
    yield router, server.address[1]
    if not router.stopped:
        router.shutdown()
    server.server_close()


def _projects_on_distinct_slots(router, count=2):
    """Project ids that the hash ring places on different workers."""
    picked: dict[int, str] = {}
    for index in range(200):
        project_id = f"obs-split-{index}"
        slot = router.pool.ring.owner(project_id)
        picked.setdefault(slot, project_id)
        if len(picked) == count:
            return picked
    raise AssertionError("ring never spread the probe keys")  # pragma: no cover


class TestStitchedTrace:
    def test_one_request_returns_one_cross_process_timeline(self, routed):
        _, port = routed
        with ServiceClient(port=port) as client:
            client.open_project(project_id="obs-t1", sources=SOURCES)
            client.analyze("obs-t1", trace_id="e2e-stitch-1")
            trace = client.trace(trace_id="e2e-stitch-1")
        assert trace["stitched"] is True
        assert trace["trace_id"] == "e2e-stitch-1"
        names_by_process: dict[str, set] = {}
        for span in trace["spans"]:
            names_by_process.setdefault(span["process"], set()).add(span["name"])
        # The router contributed the forward hop...
        assert {"router.request", "router.forward"} <= names_by_process["router"]
        # ...and the owning worker the queue wait plus the engine pipeline.
        worker_names = set().union(
            *(
                names
                for process, names in names_by_process.items()
                if process.startswith("worker-")
            )
        )
        assert {"queue.wait", "service.request"} <= worker_names
        # One timeline: corrected starts are monotone across processes.
        starts = [span["ts"] for span in trace["spans"]]
        assert starts == sorted(starts)

    def test_processes_carry_distinct_pids_and_offsets(self, routed):
        router, port = routed
        with ServiceClient(port=port) as client:
            client.open_project(project_id="obs-t2", sources=SOURCES)
            client.analyze("obs-t2", trace_id="e2e-stitch-2")
            trace = client.trace(trace_id="e2e-stitch-2")
        assert len(trace["processes"]) == 2
        pids = [row["pid"] for row in trace["processes"]]
        assert len(set(pids)) == 2
        by_process = {row["process"]: row for row in trace["processes"]}
        assert "router" in by_process
        # The worker accepted after the router: its clock offset is the
        # forward latency, small but non-negative.
        worker_row = next(
            row for name, row in by_process.items() if name.startswith("worker-")
        )
        assert worker_row["clock_offset"] >= 0.0

    def test_worker_roots_link_back_to_the_forward_span(self, routed):
        _, port = routed
        with ServiceClient(port=port) as client:
            client.open_project(project_id="obs-t3", sources=SOURCES)
            client.analyze("obs-t3", trace_id="e2e-stitch-3")
            trace = client.trace(trace_id="e2e-stitch-3")
        forward_ids = {
            span["span_id"]
            for span in trace["spans"]
            if span["process"] == "router" and span["name"] == "router.forward"
        }
        linked = [
            span
            for span in trace["spans"]
            if span.get("remote_parent")
            and span["process"].startswith("worker-")
        ]
        assert linked
        for span in linked:
            assert span["remote_parent"]["process"] == "router"
            assert span["remote_parent"]["span_id"] in forward_ids

    def test_chrome_export_spans_both_processes(self, routed):
        _, port = routed
        with ServiceClient(port=port) as client:
            client.open_project(project_id="obs-t4", sources=SOURCES)
            client.analyze("obs-t4", trace_id="e2e-stitch-4")
            trace = client.trace(trace_id="e2e-stitch-4", chrome=True)
        chrome = trace["chrome"]
        spans = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert len({event["pid"] for event in spans}) == 2
        keys = [(e["ts"], e["pid"], e["tid"], e["name"]) for e in spans]
        assert keys == sorted(keys)
        process_names = {
            e["args"]["name"]
            for e in chrome["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "router" in process_names

    def test_router_request_seq_resolves_to_the_same_stitched_trace(self, routed):
        router, port = routed
        with ServiceClient(port=port) as client:
            client.open_project(project_id="obs-t5", sources=SOURCES)
            client.analyze("obs-t5", trace_id="e2e-stitch-5")
            by_trace_id = client.trace(trace_id="e2e-stitch-5")
            seq = next(
                record.request_id
                for record in router.traces.records()
                if record.trace_id == "e2e-stitch-5"
            )
            by_request = client.trace(request_id=seq)
        assert by_request["trace_id"] == "e2e-stitch-5"
        assert by_request["span_count"] == by_trace_id["span_count"]

    def test_fragments_on_two_workers_are_all_collected(self, routed):
        # Regression: the old router forwarded `trace` to workers one by
        # one and returned the FIRST hit — a trace whose fragments live
        # on two workers (a client reusing one trace id across shards,
        # or a session migrated mid-request) lost half its spans.
        router, port = routed
        per_slot = _projects_on_distinct_slots(router)
        with ServiceClient(port=port) as client:
            for project_id in per_slot.values():
                client.open_project(project_id=project_id, sources=SOURCES)
            for project_id in per_slot.values():
                client.analyze(project_id, trace_id="e2e-split")
            trace = client.trace(trace_id="e2e-split")
        worker_parts = [
            row for row in trace["processes"] if row["process"].startswith("worker-")
        ]
        assert len(worker_parts) == 2  # both halves present
        assert all(row["spans"] > 0 for row in worker_parts)

    def test_unknown_trace_is_a_clean_error(self, routed):
        _, port = routed
        with ServiceClient(port=port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.trace(trace_id="never-issued")
            assert excinfo.value.code == "unknown_trace"
            with pytest.raises(ServiceError) as excinfo:
                client.request("trace", {})
            assert excinfo.value.code == "invalid_params"


class TestMergedEvents:
    def test_stream_merges_router_and_worker_journals(self, routed):
        _, port = routed
        with ServiceClient(port=port) as client:
            client.open_project(project_id="obs-ev", sources=SOURCES)
            client.analyze("obs-ev")
            result = client.events()
        sources = {event["source"] for event in result["events"]}
        assert "router" in sources
        assert any(source.startswith("worker-") for source in sources)
        # Worker rows carry their slot; the merge is time-ordered.
        worker_rows = [
            event for event in result["events"] if event["source"] != "router"
        ]
        assert all("slot" in event for event in worker_rows)
        stamps = [event["ts"] for event in result["events"]]
        assert stamps == sorted(stamps)
        # Per-source cursors cover every live source.
        assert set(result["cursors"]) >= sources

    def test_cursor_paging_is_gap_free(self, routed):
        _, port = routed
        with ServiceClient(port=port) as client:
            client.open_project(project_id="obs-page", sources=SOURCES)
            for _ in range(3):
                client.analyze("obs-page")
            everything = client.events()["events"]
            assert len(everything) > 4
            seen: list = []
            cursors: dict = {}
            for _ in range(200):
                page = client.events(limit=3, cursors=cursors)
                if not page["events"]:
                    break
                seen.extend(page["events"])
                cursors = page["cursors"]
            else:  # pragma: no cover - diagnostic guard
                raise AssertionError("paging never drained")

        def key(event):
            return (event["source"], event["seq"])

        assert {key(e) for e in seen} >= {key(e) for e in everything}
        assert len({key(e) for e in seen}) == len(seen)  # no duplicates

    def test_kind_filter_applies_across_the_cluster(self, routed):
        _, port = routed
        with ServiceClient(port=port) as client:
            client.open_project(project_id="obs-kind", sources=SOURCES)
            result = client.events(kind="request")
        assert result["events"]
        assert all(event["kind"].startswith("request") for event in result["events"])

    def test_bad_cursor_shapes_rejected(self, routed):
        _, port = routed
        with ServiceClient(port=port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.events(cursors={"router": -1})
            assert excinfo.value.code == "invalid_params"
            with pytest.raises(ServiceError) as excinfo:
                client.events(cursors={"router": "zero"})
            assert excinfo.value.code == "invalid_params"


class TestClusterTelemetry:
    def test_health_attributes_slo_burn_to_shards(self, routed):
        _, port = routed
        with ServiceClient(port=port) as client:
            client.open_project(project_id="obs-slo", sources=SOURCES)
            client.analyze("obs-slo")
            health = client.health()
        assert health["slos"]
        assert isinstance(health["breached_slos"], list)
        assert health["traces"]["retained"] >= 1
        for worker in health["workers"]:
            assert "burn_rate" in worker
            assert worker["slos"]
        # The shard that served the traffic registered SLO activity.
        assert any(
            status["window_count"] > 0
            for worker in health["workers"]
            for status in worker["slos"]
        )

    def test_health_counts_forwarded_requests_per_shard(self, routed):
        router, port = routed
        with ServiceClient(port=port) as client:
            before = {
                worker["slot"]: worker["requests_forwarded"]
                for worker in client.health()["workers"]
            }
            client.open_project(project_id="obs-rate", sources=SOURCES)
            client.analyze("obs-rate")
            health = client.health()
            stats = client.stats()
        owner = router.pool.ring.owner("obs-rate", router.pool.alive_slots())
        after = {
            worker["slot"]: worker["requests_forwarded"] for worker in health["workers"]
        }
        assert after[owner] - before[owner] == 2
        assert "timeseries" not in stats
        assert stats["traces"]["pin_capacity"] >= 1  # tail retention is on

    def test_top_two_iterations_show_shard_rates(self, routed, capsys):
        from repro.cli import main

        _, port = routed
        rc = main(
            ["top", "--port", str(port), "--iterations", "2", "--interval", "0.1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        first, second = out.split("valuecheck cluster")[1:]
        assert "no rate yet" in first
        assert "no rate yet" not in second
        assert "shard req/s heatmap" in second


class TestMigratedTraceStitching:
    @pytest.fixture()
    def failover(self):
        """A dedicated 2-worker router this test is allowed to break."""
        router = Router(
            RouterConfig(
                workers=2,
                spec=WorkerSpec(threads=1, max_sessions=4),
                probe_interval=0.3,
                probe_timeout=2.0,
            )
        ).start()
        server = ServiceServer(router, port=0)
        server.serve_background()
        yield router, server.address[1]
        if not router.stopped:
            router.shutdown()
        server.server_close()

    def test_migrated_request_trace_includes_the_replay_hop(self, failover):
        router, port = failover
        with ServiceClient(port=port) as client:
            client.open_project(project_id="mig-obs", sources=SOURCES)
            client.analyze("mig-obs")

            owner_slot = router.pool.ring.owner("mig-obs", router.pool.alive_slots())
            victim = router.pool.handle(owner_slot)
            victim.process.kill()
            victim.process.wait(timeout=10)

            # Drive the analyze that triggers the migration under a
            # known trace id; retry until failover lands it.
            deadline = monotonic() + 15
            while True:
                try:
                    client.analyze("mig-obs", trace_id="e2e-migrate")
                    break
                except (ServiceError, ConnectionError):
                    assert monotonic() < deadline, "failover never completed"
                    time.sleep(0.2)
            assert router.migrations >= 1

            trace = client.trace(trace_id="e2e-migrate")
        names_by_process: dict[str, set] = {}
        kinds = set()
        for span in trace["spans"]:
            names_by_process.setdefault(span["process"], set()).add(span["name"])
        # The router half shows the migration replay hop...
        assert "router.migrate" in names_by_process["router"]
        assert "router.forward" in names_by_process["router"]
        # ...and the new owner's half holds BOTH worker-side records:
        # the replayed open_project and the forwarded analyze.
        new_owner = f"worker-{router._placements['mig-obs'].slot}"
        owner_row = next(
            row for row in trace["processes"] if row["process"] == new_owner
        )
        assert owner_row["records"] >= 2
        assert {"queue.wait", "service.request"} <= names_by_process[new_owner]
