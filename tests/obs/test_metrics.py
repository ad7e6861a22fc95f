"""MetricsRegistry: recording, snapshots, and deterministic merging."""

from __future__ import annotations

import threading

from repro.obs import (
    DAEMON_WINDOW,
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    metric_key,
    parse_key,
    summarize,
    summarize_snapshot,
    to_prometheus,
)
from tests.obs.oracles import deterministic_view


class TestKeys:
    def test_no_labels(self):
        assert metric_key("engine.runs") == "engine.runs"

    def test_labels_sorted(self):
        assert (
            metric_key("prune.killed", {"pruner": "cursor", "app": "x"})
            == "prune.killed{app=x,pruner=cursor}"
        )

    def test_roundtrip(self):
        key = metric_key("a.b", {"x": "1", "y": "z"})
        assert parse_key(key) == ("a.b", {"x": "1", "y": "z"})

    def test_parse_unlabelled(self):
        assert parse_key("plain") == ("plain", {})


class TestRecording:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 2)
        assert registry.counter("hits") == 3

    def test_labelled_counters_are_distinct(self):
        registry = MetricsRegistry()
        registry.inc("prune.killed", pruner="cursor")
        registry.inc("prune.killed", pruner="unused_hints")
        assert registry.counter("prune.killed", pruner="cursor") == 1
        assert registry.counters_by_name("prune.killed") == {
            "prune.killed{pruner=cursor}": 1,
            "prune.killed{pruner=unused_hints}": 1,
        }

    def test_gauge_overwrites(self):
        registry = MetricsRegistry()
        registry.set_gauge("workers", 2)
        registry.set_gauge("workers", 4)
        assert registry.gauge("workers") == 4

    def test_histogram_collects(self):
        registry = MetricsRegistry()
        for value in (3.0, 1.0, 2.0):
            registry.observe("latency", value)
        assert registry.histogram("latency") == [3.0, 1.0, 2.0]

    def test_thread_safety(self):
        registry = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                registry.inc("n")
                registry.observe("v", 1.0)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("n") == 4000
        assert len(registry.histogram("v")) == 4000


class TestSummaries:
    def test_summarize_percentiles(self):
        stats = summarize(range(1, 101))
        assert stats["count"] == 100
        assert stats["min"] == 1 and stats["max"] == 100
        assert stats["p50"] == 50
        assert stats["p90"] == 90
        assert stats["p99"] == 99

    def test_summarize_empty(self):
        assert summarize([]) == {"count": 0, "sum": 0.0}

    def test_summarize_snapshot_collapses_histograms(self):
        registry = MetricsRegistry()
        registry.observe("x", 1.0)
        registry.observe("x", 3.0)
        compact = summarize_snapshot(registry.snapshot())
        assert compact["histograms"]["x"]["count"] == 2
        assert compact["histograms"]["x"]["sum"] == 4.0


class TestWindowedHistograms:
    """A daemon's registry keeps its latest observations; count and sum
    stay lifetime totals."""

    def _prometheus(self, registry: MetricsRegistry) -> tuple[int, float]:
        lines = dict(
            line.split(" ") for line in to_prometheus(registry.snapshot()).splitlines()
            if not line.startswith("#")
        )
        return int(lines["lat_seconds_count"]), float(lines["lat_seconds_sum"])

    def test_window_bounds_the_values_and_keeps_lifetime_totals(self):
        registry = MetricsRegistry(window=DAEMON_WINDOW)
        observed = [0.001 * (index % 97 + 1) for index in range(3 * DAEMON_WINDOW)]
        last = (0, 0.0)
        for value in observed:
            registry.observe("lat_seconds", value)
            count, total = self._prometheus(registry)
            assert count >= last[0] and total >= last[1]
            last = (count, total)
        assert last[0] == len(observed)
        assert abs(last[1] - sum(observed)) < 1e-9
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["lat_seconds"] == sorted(observed[-DAEMON_WINDOW:])
        stats = summarize_snapshot(snapshot)["histograms"]["lat_seconds"]
        assert stats["count"] == len(observed)
        assert stats["max"] == max(observed[-DAEMON_WINDOW:])

    def test_merged_windows_add_their_totals(self):
        workers = []
        for _ in range(2):
            worker = MetricsRegistry(window=DAEMON_WINDOW)
            for _ in range(DAEMON_WINDOW + 10):
                worker.observe("lat_seconds", 0.5)
            workers.append(worker.snapshot())
        merged = MetricsRegistry.merged(workers).snapshot()
        assert len(merged["histograms"]["lat_seconds"]) == 2 * DAEMON_WINDOW
        assert merged["totals"]["lat_seconds"] == [2 * DAEMON_WINDOW + 20, (DAEMON_WINDOW + 10)]

    def test_a_per_run_registry_keeps_every_observation(self):
        registry = MetricsRegistry()
        for value in range(3 * DAEMON_WINDOW):
            registry.observe("andersen.iterations", value)
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["andersen.iterations"] == list(range(3 * DAEMON_WINDOW))
        assert "totals" not in snapshot


class TestMergeDeterminism:
    def _worker_snapshots(self):
        snapshots = []
        for index in range(5):
            local = MetricsRegistry()
            local.inc("andersen.modules")
            local.observe("andersen.iterations", 10 * index)
            local.observe("module.analyze_seconds", 0.01 * index)
            snapshots.append(local.snapshot())
        return snapshots

    def test_merge_order_independent(self):
        snapshots = self._worker_snapshots()
        forward = MetricsRegistry.merged(snapshots).snapshot()
        backward = MetricsRegistry.merged(reversed(snapshots)).snapshot()
        assert forward == backward

    def test_merge_sums_counters_and_extends_histograms(self):
        merged = MetricsRegistry.merged(self._worker_snapshots())
        assert merged.counter("andersen.modules") == 5
        assert merged.histogram("andersen.iterations") == [0, 10, 20, 30, 40]

    def test_gauge_merge_keeps_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.set_gauge("workers", 2)
        b.set_gauge("workers", 8)
        merged = MetricsRegistry.merged([a.snapshot(), b.snapshot()])
        assert merged.gauge("workers") == 8

    def test_deterministic_view_strips_timings(self):
        registry = MetricsRegistry()
        registry.inc("engine.modules", 3)
        registry.observe("service.request_seconds", 0.5)
        registry.observe("andersen.iterations", 42)
        registry.observe("service.queue.wait_seconds", 0.001, type="analyze")
        view = deterministic_view(registry.snapshot())
        assert "service.request_seconds" not in view["histograms"]
        assert "service.queue.wait_seconds{type=analyze}" not in view["histograms"]
        assert view["histograms"]["andersen.iterations"] == [42]
        assert view["counters"]["engine.modules"] == 3

    def test_snapshot_carries_schema(self):
        assert MetricsRegistry().snapshot()["schema"] == METRICS_SCHEMA_VERSION
