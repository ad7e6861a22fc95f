"""Daemon behaviour: backpressure, timeouts, draining shutdown, eviction.

The tests drive :class:`AnalysisService` in-process (no sockets) and
replace handlers with slow/controllable stand-ins where determinism
requires it — the queue, deadline, and drain logic under test is
identical for real and stand-in handlers.
"""

import threading
import time

import pytest

from repro.core.project import Project
from repro.core.pruning import default_pipeline
from repro.core.valuecheck import ValueCheckConfig
from repro.obs import DAEMON_WINDOW
from repro.service import AnalysisService, ServiceConfig
from repro.service.core import RETRY_AFTER
from repro.service.sessions import SessionManager

SIMPLE = {"m.c": "int f(void)\n{\n    int dead;\n    dead = 1;\n    return 0;\n}\n"}


def open_simple(service, project_id="p"):
    response = service.submit(
        {
            "id": 0,
            "type": "open_project",
            "params": {"sources": dict(SIMPLE), "project_id": project_id},
        }
    )
    assert response["ok"], response
    return response["result"]


class TestBackpressure:
    def test_queue_full_rejected_with_retry_after(self):
        service = AnalysisService(
            ServiceConfig(workers=1, queue_capacity=1)
        ).start()
        try:
            open_simple(service)
            release = threading.Event()
            started = threading.Event()

            def slow(params):
                started.set()
                release.wait(timeout=10)
                return {"slow": True}

            service._handlers["analyze"] = slow
            responses = []

            def submit():
                responses.append(
                    service.submit({"id": 1, "type": "analyze", "params": {}})
                )

            # One request occupies the single worker; one fills the queue.
            threads = [threading.Thread(target=submit) for _ in range(2)]
            threads[0].start()
            assert started.wait(timeout=5)
            threads[1].start()
            deadline = time.monotonic() + 5
            while service._queue.qsize() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)

            # The queue is full: the next submission is rejected, not queued.
            rejected = service.submit({"id": 3, "type": "analyze", "params": {}})
            assert rejected["ok"] is False
            assert rejected["error"]["code"] == "queue_full"
            assert rejected["error"]["retry_after"] == RETRY_AFTER

            release.set()
            for thread in threads:
                thread.join(timeout=10)
            assert all(r["ok"] for r in responses)
        finally:
            service.shutdown()

    def test_control_plane_bypasses_full_queue(self):
        service = AnalysisService(ServiceConfig(workers=1, queue_capacity=1)).start()
        try:
            release = threading.Event()
            service._handlers["analyze"] = lambda params: release.wait(timeout=10)
            threading.Thread(
                target=service.submit,
                args=({"id": 1, "type": "analyze", "params": {}},),
                daemon=True,
            ).start()
            deadline = time.monotonic() + 5
            while not service._inflight and time.monotonic() < deadline:
                time.sleep(0.01)
            # health/stats answer inline even with the worker busy.
            assert service.submit({"id": 2, "type": "health"})["ok"]
            assert service.submit({"id": 3, "type": "stats"})["ok"]
            release.set()
        finally:
            service.shutdown()


class TestTimeouts:
    def test_slow_request_times_out(self):
        service = AnalysisService(ServiceConfig(workers=1)).start()
        try:
            open_simple(service)
            service._handlers["analyze"] = lambda params: time.sleep(1.0)
            response = service.submit(
                {"id": 1, "type": "analyze", "params": {}}, timeout=0.05
            )
            assert response["ok"] is False
            assert response["error"]["code"] == "timeout"
        finally:
            service.shutdown()

    def test_request_expiring_in_queue_never_runs(self):
        service = AnalysisService(ServiceConfig(workers=1, queue_capacity=2)).start()
        try:
            ran = []
            release = threading.Event()

            def record(params):
                ran.append(params.get("tag"))
                release.wait(timeout=10)
                return {}

            service._handlers["analyze"] = record
            threading.Thread(
                target=service.submit,
                args=({"id": 1, "type": "analyze", "params": {"tag": "first"}},),
                daemon=True,
            ).start()
            deadline = time.monotonic() + 5
            while not ran and time.monotonic() < deadline:
                time.sleep(0.01)
            # Second request waits in the queue past its deadline.
            response = service.submit(
                {"id": 2, "type": "analyze", "params": {"tag": "second"}},
                timeout=0.05,
            )
            assert response["error"]["code"] == "timeout"
            release.set()
            time.sleep(0.1)
            assert "second" not in ran  # abandoned in the queue, never started
        finally:
            service.shutdown()

    def test_timed_out_request_counted(self):
        service = AnalysisService(ServiceConfig(workers=1)).start()
        try:
            service._handlers["analyze"] = lambda params: time.sleep(0.5)
            service.submit({"id": 1, "type": "analyze", "params": {}}, timeout=0.05)
            counts = service.request_counts()
            timed_out = [k for k in counts if "timed_out" in k]
            assert timed_out and counts[timed_out[0]] >= 1
        finally:
            service.shutdown()


class TestGracefulShutdown:
    def test_drains_exactly_the_accepted_requests(self):
        service = AnalysisService(ServiceConfig(workers=2, queue_capacity=8)).start()
        open_simple(service)
        done = []

        def slowish(params):
            time.sleep(0.05)
            done.append(params["tag"])
            return {"tag": params["tag"]}

        service._handlers["analyze"] = slowish
        responses = {}

        def submit(tag):
            responses[tag] = service.submit(
                {"id": tag, "type": "analyze", "params": {"tag": tag}}
            )

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 5
        while len(responses) + service._queue.qsize() + service._inflight < 4:
            time.sleep(0.005)
            if time.monotonic() > deadline:
                break

        summary = service.shutdown()
        for thread in threads:
            thread.join(timeout=10)

        assert summary["stopped"] is True
        # Every accepted request completed and was answered (no drops).
        assert sorted(done) == [0, 1, 2, 3]
        assert all(responses[i]["ok"] for i in range(4))
        # New work after (or during) shutdown is refused, not queued.
        refused = service.submit({"id": 99, "type": "analyze", "params": {}})
        assert refused["error"]["code"] == "shutting_down"

    def test_shutdown_is_idempotent(self):
        service = AnalysisService(ServiceConfig(workers=1)).start()
        first = service.shutdown()
        second = service.shutdown()
        assert first["stopped"] and second["stopped"]

    def test_shutdown_request_type(self):
        service = AnalysisService(ServiceConfig(workers=1)).start()
        response = service.submit({"id": 1, "type": "shutdown", "params": {}})
        assert response["ok"] and response["result"]["stopped"]
        assert service.stopped


class TestSessionEviction:
    def _project(self, tag):
        return Project.from_sources(
            {f"{tag}.c": f"int f_{tag}(void)\n{{\n    return 0;\n}}\n"}, name=tag
        )

    def test_lru_entry_cap(self):
        manager = SessionManager(max_sessions=2)
        config = ValueCheckConfig(use_authorship=False)
        manager.open("a", self._project("a"), config)
        manager.open("b", self._project("b"), config)
        _, evicted = manager.open("c", self._project("c"), config)
        assert evicted == ["a"]
        assert manager.ids() == ["b", "c"]
        assert manager.get("a") is None

    def test_get_refreshes_recency(self):
        manager = SessionManager(max_sessions=2)
        config = ValueCheckConfig(use_authorship=False)
        manager.open("a", self._project("a"), config)
        manager.open("b", self._project("b"), config)
        manager.get("a")  # a is now most-recent; b is the LRU victim
        _, evicted = manager.open("c", self._project("c"), config)
        assert evicted == ["b"]

    def test_loc_cap_keeps_most_recent(self):
        manager = SessionManager(max_sessions=10, max_total_loc=5)
        config = ValueCheckConfig(use_authorship=False)
        manager.open("a", self._project("a"), config)  # 4 lines each
        _, evicted = manager.open("b", self._project("b"), config)
        assert evicted == ["a"]
        assert manager.ids() == ["b"]

    def test_reopening_replaces_in_place(self):
        manager = SessionManager(max_sessions=2)
        config = ValueCheckConfig(use_authorship=False)
        manager.open("a", self._project("a"), config)
        session, evicted = manager.open("a", self._project("a"), config)
        assert evicted == []
        assert len(manager) == 1
        assert manager.get("a") is session

    def test_evicted_project_errors_and_reopens(self):
        service = AnalysisService(ServiceConfig(max_sessions=1)).start()
        try:
            open_simple(service, "first")
            open_simple(service, "second")  # evicts "first"
            response = service.submit(
                {"id": 1, "type": "analyze", "params": {"project_id": "first"}}
            )
            assert response["error"]["code"] == "unknown_project"
            open_simple(service, "first")  # recovery path: re-open
            response = service.submit(
                {"id": 2, "type": "analyze", "params": {"project_id": "first"}}
            )
            assert response["ok"]
        finally:
            service.shutdown()


class TestServiceMetrics:
    def test_request_counters_recorded(self):
        service = AnalysisService(ServiceConfig()).start()
        try:
            open_simple(service)
            service.submit({"id": 1, "type": "analyze", "params": {"project_id": "p"}})
            counts = service.request_counts()
            assert counts.get("service.requests{outcome=ok,type=analyze}") == 1
            assert counts.get("service.requests{outcome=accepted,type=analyze}") == 1
        finally:
            service.shutdown()

    def test_latency_histograms_recorded(self):
        service = AnalysisService(ServiceConfig()).start()
        try:
            open_simple(service)
            snapshot = service.metrics.snapshot()
            histograms = snapshot["histograms"]
            assert any(k.startswith("service.request_seconds") for k in histograms)
            assert any(k.startswith("service.queue.wait_seconds") for k in histograms)
        finally:
            service.shutdown()

    def test_latency_histograms_keep_a_window_of_observations(self):
        service = AnalysisService(ServiceConfig()).start()
        try:
            open_simple(service)
            requests = DAEMON_WINDOW + 40
            for index in range(requests):
                request = {"id": index + 1, "type": "analyze", "params": {"project_id": "p"}}
                assert service.submit(request)["ok"]
            reply = service.submit({"id": 0, "type": "stats", "params": {"raw_metrics": True}})
            snapshot = reply["result"]["metrics_snapshot"]
            key = "service.request_seconds{type=analyze}"
            assert len(snapshot["histograms"][key]) == DAEMON_WINDOW
            assert snapshot["totals"][key][0] == requests
            assert reply["result"]["metrics"]["histograms"][key]["count"] == requests
        finally:
            service.shutdown()

    def test_stats_record_schema(self):
        service = AnalysisService(ServiceConfig()).start()
        try:
            open_simple(service)
            record = service.stats_record()
            assert record["project"] == "<service>"
            assert "requests" in record["service"]
            assert "latency" in record["service"]
        finally:
            service.shutdown()


class TestExplainRequest:
    """The `explain` request answers provenance from warm session state."""

    def test_explain_after_analyze_uses_warm_report(self):
        service = AnalysisService(ServiceConfig()).start()
        try:
            open_simple(service)
            service.submit({"id": 1, "type": "analyze", "params": {"project_id": "p"}})
            response = service.submit(
                {"id": 2, "type": "explain", "params": {"project_id": "p"}}
            )
            assert response["ok"], response
            result = response["result"]
            assert result["project_id"] == "p"
            assert result["records"]
            record = result["records"][0]
            assert record["detection"]["file"] == "m.c"
            assert [v["pruner"] for v in record["verdicts"]]
            assert "detection:" in result["rendered"]
            # Answered from the stored report: no second full analysis ran.
            session = service.sessions.get("p")
            assert session.analyze_count == 1
        finally:
            service.shutdown()

    def test_explain_without_prior_analyze_falls_back_to_full_run(self):
        service = AnalysisService(ServiceConfig()).start()
        try:
            open_simple(service)
            response = service.submit(
                {"id": 1, "type": "explain", "params": {"project_id": "p"}}
            )
            assert response["ok"], response
            assert response["result"]["records"]
            assert service.sessions.get("p").analyze_count == 1
        finally:
            service.shutdown()

    def test_explain_filters_by_finding_fragment(self):
        service = AnalysisService(ServiceConfig()).start()
        try:
            open_simple(service)
            everything = service.submit(
                {"id": 1, "type": "explain", "params": {"project_id": "p"}}
            )["result"]["records"]
            filtered = service.submit(
                {
                    "id": 2,
                    "type": "explain",
                    "params": {"project_id": "p", "finding": "m.c:f:dead"},
                }
            )["result"]["records"]
            assert filtered
            assert len(filtered) <= len(everything)
            assert all("m.c:f:dead" in r["key"] for r in filtered)
            nothing = service.submit(
                {
                    "id": 3,
                    "type": "explain",
                    "params": {"project_id": "p", "finding": "zzz-nope"},
                }
            )["result"]
            assert nothing["records"] == []
        finally:
            service.shutdown()

    def test_explain_unknown_project_errors(self):
        service = AnalysisService(ServiceConfig()).start()
        try:
            response = service.submit(
                {"id": 1, "type": "explain", "params": {"project_id": "ghost"}}
            )
            assert not response["ok"]
            assert response["error"]["code"] == "unknown_project"
        finally:
            service.shutdown()

    def test_explain_bad_finding_param_rejected(self):
        service = AnalysisService(ServiceConfig()).start()
        try:
            open_simple(service)
            response = service.submit(
                {
                    "id": 1,
                    "type": "explain",
                    "params": {"project_id": "p", "finding": 42},
                }
            )
            assert not response["ok"]
            assert response["error"]["code"] == "invalid_params"
        finally:
            service.shutdown()


class TestPruneStatsShape:
    """``analyze`` and ``analyze_diff`` report prune statistics in one
    shape: every enabled pruner, zero kills included."""

    def test_every_enabled_pruner_listed_by_both(self):
        service = AnalysisService(ServiceConfig()).start()
        try:
            open_simple(service)
            full = service.submit(
                {"id": 1, "type": "analyze", "params": {"project_id": "p"}}
            )
            edit = {"m.c": SIMPLE["m.c"].replace("dead = 1;", "dead = 2;")}
            diff = service.submit(
                {
                    "id": 2,
                    "type": "analyze_diff",
                    "params": {"project_id": "p", "changes": edit},
                }
            )
            assert full["ok"] and diff["ok"], (full, diff)
            every_pruner = default_pipeline().stats([])
            assert full["result"]["prune_stats"] == every_pruner
            assert diff["result"]["prune_stats"] == every_pruner
        finally:
            service.shutdown()


class TestShutdownQueueRace:
    def test_shutdown_during_drain_rejects_with_shutting_down(self):
        """A submit that loses the race with shutdown — accepting-check
        passes, then the drained-but-full queue raises Full — must get
        ``shutting_down``, not ``queue_full`` + retry_after (the client
        would retry against a dying server).  The race window is
        simulated deterministically: the queue flips ``_accepting`` off
        (as a concurrent shutdown does) before raising Full.
        """
        import queue as queue_module

        service = AnalysisService(ServiceConfig(workers=1, queue_capacity=1)).start()
        try:
            real_queue = service._queue

            class RacingQueue:
                def put_nowait(self, item):
                    with service._state_lock:
                        service._accepting = False
                    raise queue_module.Full

                def __getattr__(self, name):
                    return getattr(real_queue, name)

            service._queue = RacingQueue()
            try:
                response = service.submit({"id": 1, "type": "analyze", "params": {}})
            finally:
                service._queue = real_queue
            assert response["ok"] is False
            assert response["error"]["code"] == "shutting_down"
            assert "retry_after" not in response["error"]
        finally:
            service.shutdown()

    def test_plain_full_queue_still_reports_queue_full(self):
        """The race fix must not reclassify ordinary backpressure."""
        import queue as queue_module

        service = AnalysisService(
            ServiceConfig(workers=1, queue_capacity=1)
        ).start()
        try:
            real_queue = service._queue

            class FullQueue:
                def put_nowait(self, item):
                    raise queue_module.Full

                def __getattr__(self, name):
                    return getattr(real_queue, name)

            service._queue = FullQueue()
            try:
                response = service.submit({"id": 1, "type": "analyze", "params": {}})
            finally:
                service._queue = real_queue
            assert response["ok"] is False
            assert response["error"]["code"] == "queue_full"
            assert response["error"]["retry_after"] == RETRY_AFTER
        finally:
            service.shutdown()


class TestProtocolHandlerAgreement:
    def test_every_queued_handler_is_a_protocol_request_type(self):
        # The TCP/stdio server validates request types against
        # protocol.REQUEST_TYPES *before* dispatch; a handler registered
        # in AnalysisService but missing there is unreachable from a
        # real client (and vice versa leaves a type nothing answers).
        from repro.service.protocol import REQUEST_TYPES

        service = AnalysisService(ServiceConfig(workers=1))
        queue_bypassing = {"stats", "health", "trace", "events", "shutdown"}
        assert set(REQUEST_TYPES) == set(service._handlers) | queue_bypassing
