"""The sharded topology: hash ring, worker pool, router, migration.

The heavyweight fixtures spawn real worker processes, so most tests
share one module-scoped router; the worker-failure scenario gets its own
(it kills a worker).  The failure test is the PR's acceptance scenario:
kill a worker mid-load, assert the hash range is served by a new owner,
findings are fingerprint-identical after migration, and the journal
shows ``worker.died`` before ``worker.respawned``/``session.migrated``.
"""

import json
import socket
import threading
import time

import pytest

from repro.obs.clock import monotonic
from repro.service import (
    HashRing,
    Router,
    RouterConfig,
    ServiceClient,
    ServiceError,
    ServiceServer,
    WorkerSpec,
)
from repro.service import router as router_module

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


class TestHashRing:
    def test_deterministic_ownership(self):
        a, b = HashRing(4), HashRing(4)
        for key in ("alpha", "beta", "gamma", "p-123"):
            assert a.owner(key) == b.owner(key)

    def test_every_slot_owns_a_share(self):
        shares = HashRing(4, vnodes=64).shares()
        assert set(shares) == {0, 1, 2, 3}
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        assert all(share > 0.05 for share in shares.values())  # vnodes balance

    def test_dead_slot_range_reassigned_and_restored(self):
        ring = HashRing(3)
        keys = [f"proj-{i}" for i in range(40)]
        full = {key: ring.owner(key) for key in keys}
        without_one = {key: ring.owner(key, alive={0, 2}) for key in keys}
        for key in keys:
            assert without_one[key] != 1  # nothing routes to the dead slot
            if full[key] != 1:
                # Keys the dead slot never owned do not move.
                assert without_one[key] == full[key]
        # Restoration is exact: alive=all gives the original placement.
        assert {key: ring.owner(key, alive={0, 1, 2}) for key in keys} == full

    def test_no_alive_slots_raises(self):
        with pytest.raises(LookupError):
            HashRing(2).owner("x", alive=set())

    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            HashRing(0)


@pytest.fixture(scope="module")
def routed():
    """One shared 2-worker router for the non-destructive tests."""
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


class TestRouterProtocol:
    def test_client_works_unchanged_and_ids_echo(self, routed):
        _, port = routed
        with ServiceClient(port=port) as client:
            result = client.open_project(project_id="rt-a", sources=SOURCES)
            assert result["project_id"] == "rt-a"
            analysis = client.analyze("rt-a")
            assert analysis["counts"]["reported"] >= 1

    def test_trace_id_propagates_to_the_owning_worker(self, routed):
        _, port = routed
        with ServiceClient(port=port) as client:
            client.open_project(project_id="rt-trace", sources=SOURCES)
            client.analyze("rt-trace", trace_id="e2e-route-1")
            trace = client.trace(trace_id="e2e-route-1")
            assert trace["trace_id"] == "e2e-route-1"
            assert trace["spans"]  # the worker recorded the request's spans

    def test_router_assigns_trace_id_when_client_sent_none(self, routed):
        _, port = routed
        with ServiceClient(port=port) as client:
            client.open_project(project_id="rt-anon", sources=SOURCES)
            client.analyze("rt-anon")
            assert client.last_trace_id.startswith("rtr-")
            assert client.trace()["trace_id"] == client.last_trace_id

    def test_unknown_type_and_bad_project_rejected(self, routed):
        _, port = routed
        with ServiceClient(port=port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("analyze", {"project_id": 42})
            assert excinfo.value.code == "invalid_params"
            with pytest.raises(ServiceError) as excinfo:
                client.request("analyze", {"project_id": "never-opened"})
            assert excinfo.value.code == "unknown_project"

    def test_anonymous_opens_get_distinct_ids_and_sessions(self, routed):
        # Regression: each worker minted ``p<n>`` from its own counter, so
        # anonymous opens on two shards collided and one client's
        # requests reached another client's session.
        _, port = routed
        files_by_id: dict[str, set] = {}
        with ServiceClient(port=port) as client:
            for index in range(6):
                sources = {
                    f"anon{index}_{module}.c": (
                        f"int f{index}_{module}(void)\n{{\n    int dead;\n"
                        "    dead = 1;\n    return 0;\n}\n"
                    )
                    for module in range(index + 1)
                }
                opened = client.open_project(sources=sources)
                assert opened["modules"] == len(sources)
                files_by_id.setdefault(opened["project_id"], set()).update(sources)
            assert len(files_by_id) == 6
            for project_id, files in files_by_id.items():
                analysis = client.analyze(project_id, top=100)
                assert {row["file"] for row in analysis["findings"]} == files

    def test_sessions_shard_across_workers(self, routed):
        router, port = routed
        with ServiceClient(port=port) as client:
            for index in range(8):
                client.open_project(project_id=f"shard-{index}", sources=SOURCES)
            owners = {
                router.pool.ring.owner(f"shard-{index}") for index in range(8)
            }
        assert owners == {0, 1}  # both slots really hold shards

    def test_routed_reply_is_the_workers_line(self, routed, monkeypatch):
        router, port = routed
        replies = []
        roundtrip = router_module._WorkerConn.roundtrip

        def recording(conn, envelope):
            reply = roundtrip(conn, envelope)
            replies.append(reply)
            return reply

        with ServiceClient(port=port) as client:
            client.open_project(project_id="rt-relay", sources=SOURCES)
        monkeypatch.setattr(router_module._WorkerConn, "roundtrip", recording)
        request = {"id": 7, "type": "explain", "params": {"project_id": "rt-relay"}}
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(json.dumps(request).encode() + b"\n")
            received = sock.makefile("rb").readline()
        (reply,) = [reply for reply in replies if reply.get("id") == 7]
        assert received == reply.line.encode()
        assert json.loads(received)["result"]["records"]
        # Relayed as the very line the worker sent, not encoded again.
        relayed = router.submit_line(json.dumps(dict(request, id=8)))
        (reply,) = [reply for reply in replies if reply.get("id") == 8]
        assert relayed is reply.line


class TestRouterControlPlane:
    def test_health_carries_shard_map_and_worker_status(self, routed):
        _, port = routed
        with ServiceClient(port=port) as client:
            health = client.health()
        assert health["role"] == "router"
        assert health["status"] == "ok"
        assert health["alive_workers"] == 2
        slots = health["shard_map"]["slots"]
        assert [slot["slot"] for slot in slots] == [0, 1]
        assert all(slot["ring_share"] > 0 for slot in slots)
        assert all(slot["generation"] >= 1 for slot in slots)
        assert {worker["status"] for worker in health["workers"]} <= {
            "ok",
            "degraded",
        }

    def test_stats_merges_per_worker_metrics(self, routed):
        _, port = routed
        with ServiceClient(port=port) as client:
            client.open_project(project_id="rt-stats", sources=SOURCES)
            client.analyze("rt-stats")
            stats = client.stats()
        assert stats["role"] == "router"
        assert stats["sessions_total"] >= 1
        # The merged view folds every worker's registry plus the
        # router's own counters into one deterministic snapshot.
        counters = stats["metrics"]["counters"]
        assert any(key.startswith("service.requests") for key in counters)
        assert any(key.startswith("router.requests") for key in counters)
        worker_rows = [row for row in stats["workers"] if row["status"] == "ok"]
        assert len(worker_rows) == 2

    def test_events_serves_the_router_journal(self, routed):
        _, port = routed
        with ServiceClient(port=port) as client:
            events = client.events(kind="worker")
        kinds = [event["kind"] for event in events["events"]]
        assert kinds.count("worker.spawned") >= 2


class TestWorkerFailure:
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

    def test_kill_migrate_fingerprints_and_journal_order(self, failover):
        router, port = failover
        with ServiceClient(port=port) as client:
            client.open_project(project_id="fo-proj", sources=SOURCES)
            client.analyze("fo-proj")
            before = sorted(
                row["fingerprint"]
                for row in client.request(
                    "diff_findings", {"project_id": "fo-proj"}
                )["rows"]
            )
            assert before  # the scenario needs real findings to compare

            owner_slot = router.pool.ring.owner("fo-proj", router.pool.alive_slots())
            victim = router.pool.handle(owner_slot)
            victim.process.kill()
            victim.process.wait(timeout=10)

            # Mid-outage service: the request either lands on the
            # reassigned range immediately or (while death is still
            # undetected) surfaces worker_unavailable — never a hang.
            deadline = monotonic() + 15
            while True:
                try:
                    client.analyze("fo-proj")
                    break
                except (ServiceError, ConnectionError):
                    assert monotonic() < deadline, "failover never completed"
                    time.sleep(0.2)

            after = sorted(
                row["fingerprint"]
                for row in client.request(
                    "diff_findings", {"project_id": "fo-proj"}
                )["rows"]
            )
            # Deterministic analysis: migration preserves every finding
            # identity bit-for-bit.
            assert after == before

            # The range moved: the session now lives on a different slot
            # or a fresh generation of the old one.
            placement = router._placements["fo-proj"]
            assert (placement.slot, placement.generation) != (
                victim.slot,
                victim.generation,
            )
            assert router.migrations >= 1

            # Journal order: the death is recorded before the respawn
            # and before any migration.
            events = client.events()["events"]
            kinds = [event["kind"] for event in events]
            assert "worker.died" in kinds
            assert "session.migrated" in kinds
            died_at = kinds.index("worker.died")
            assert died_at < kinds.index("session.migrated")
            if "worker.respawned" in kinds:
                assert died_at < kinds.index("worker.respawned")
            died = next(e for e in events if e["kind"] == "worker.died")
            assert died["slot"] == victim.slot
            migrated = next(e for e in events if e["kind"] == "session.migrated")
            assert migrated["project_id"] == "fo-proj"
            assert migrated["from_slot"] == victim.slot

    def test_respawned_worker_rejoins_with_bumped_generation(self, failover):
        router, port = failover
        victim = router.pool.handle(0)
        victim.process.kill()
        victim.process.wait(timeout=10)
        deadline = monotonic() + 20
        while router.pool.respawns < 1 or not router.pool.handle(0).alive:
            assert monotonic() < deadline, "respawn never completed"
            time.sleep(0.2)
        fresh = router.pool.handle(0)
        assert fresh.generation == victim.generation + 1
        assert fresh.pid != victim.pid
        with ServiceClient(port=port) as client:
            deadline = monotonic() + 10
            while client.health()["alive_workers"] < 2:
                assert monotonic() < deadline, "pool never back to full strength"
                time.sleep(0.2)

    def test_failed_respawn_is_retried_at_the_next_probe(self, failover):
        # A spawn that raises must not leave the slot dead for good: the
        # probe thread starts the respawn again.
        router, _ = failover
        pool = router.pool
        original_spawn = pool._spawn
        failures: list[int] = []

        def failing_once(slot, generation):
            if not failures:
                failures.append(slot)
                raise OSError("spawn failed")
            return original_spawn(slot, generation)

        pool._spawn = failing_once
        victim = pool.handle(0)
        victim.process.kill()
        victim.process.wait(timeout=10)
        pool.report_failure(0, victim.generation)
        deadline = monotonic() + 20
        while not pool.handle(0).alive:
            assert monotonic() < deadline, "the failed respawn was never retried"
            time.sleep(0.1)
        assert failures == [0]
        assert pool.handle(0).generation == victim.generation + 1
        assert pool.metrics.counter("router.worker.respawn_failures") == 1
        assert pool.metrics.counter("router.worker.respawns") == 1
        kinds = [event.kind for event in router.journal.events()]
        assert kinds.index("worker.respawn_failed") < kinds.index("worker.respawned")

    def test_stale_failure_report_ignored(self, failover):
        router, _ = failover
        handle = router.pool.handle(1)
        # A report about a generation that is no longer current is stale.
        router.pool.report_failure(1, handle.generation - 1)
        assert router.pool.handle(1).alive
        # A report about a live process is left to the health probe.
        router.pool.report_failure(1, handle.generation)
        assert router.pool.handle(1).alive

    def test_respawn_racing_stop_reaps_the_fresh_worker(self, failover):
        # A respawn's worker spawn takes seconds (Python startup).  If
        # stop() runs inside that window, its SIGTERM sweep snapshots
        # the handle table *before* the fresh worker is installed — the
        # fresh process must be reaped by the respawn path itself, not
        # leaked as an orphan.
        router, _ = failover
        pool = router.pool
        spawn_started = threading.Event()
        release_spawn = threading.Event()
        spawned: list = []
        original_spawn = pool._spawn

        def blocking_spawn(slot, generation):
            spawn_started.set()
            assert release_spawn.wait(timeout=30), "spawn never released"
            handle = original_spawn(slot, generation)
            spawned.append(handle)
            return handle

        pool._spawn = blocking_spawn
        victim = pool.handle(0)
        victim.process.kill()
        victim.process.wait(timeout=10)
        pool.report_failure(0, victim.generation)  # respawn thread starts
        assert spawn_started.wait(timeout=10), "respawn never reached spawn"

        stopper = threading.Thread(target=router.shutdown)
        stopper.start()
        assert pool._stopped.wait(timeout=10), "stop() never set the flag"
        release_spawn.set()  # the spawn lands while the pool is stopping
        stopper.join(timeout=30)
        assert not stopper.is_alive()

        deadline = monotonic() + 15
        while not spawned:
            assert monotonic() < deadline, "respawn thread never spawned"
            time.sleep(0.1)
        # The late-spawned worker was terminated, not leaked.
        assert spawned[0].process.wait(timeout=15) is not None
        deadline = monotonic() + 10
        while "worker.respawn_aborted" not in [
            event.kind for event in router.journal.events()
        ]:
            assert monotonic() < deadline, "respawn_aborted never journalled"
            time.sleep(0.1)
