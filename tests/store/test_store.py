"""FindingsStore lifecycle: snapshots, transitions, backends, telemetry."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.core.incremental import IncrementalAnalyzer
from repro.store import (
    FindingsStore,
    Lifecycle,
    SqliteBackend,
    STORE_SCHEMA_VERSION,
)

from tests.store.helpers import CONFIG, SRC, analyze, sources_of

SRC_FIXED = SRC.replace("    int r = helper(2);\n", "")
SRC_SHIFTED = "// header comment\n\n" + SRC


def snapshot(store, sources, rev):
    project, report = analyze(sources)
    return store.record_snapshot(report.findings, sources_of(project), rev=rev)


class TestLifecycle:
    def test_first_snapshot_is_all_new(self):
        store = FindingsStore.in_memory()
        diff = snapshot(store, {"t.c": SRC}, "revA")
        assert diff.counts() == {"new": 2, "persistent": 0, "fixed": 0, "reopened": 0}
        assert all(row.state is Lifecycle.NEW for row in diff.rows)
        assert store.stats() == {
            "entries": 2, "active": 2, "fixed": 0, "snapshots": 1
        }

    def test_unchanged_resnapshot_is_all_persistent(self):
        store = FindingsStore.in_memory()
        snapshot(store, {"t.c": SRC}, "revA")
        diff = snapshot(store, {"t.c": SRC}, "revB")
        assert diff.counts()["persistent"] == 2
        assert not any(row.rematched for row in diff.rows)

    def test_pure_line_shift_stays_persistent_with_same_fingerprint(self):
        store = FindingsStore.in_memory()
        before = snapshot(store, {"t.c": SRC}, "revA")
        after = snapshot(store, {"t.c": SRC_SHIFTED}, "revB")
        assert after.counts()["persistent"] == 2
        assert not any(row.rematched for row in after.rows)
        assert sorted(row.fingerprint for row in before.rows) == sorted(
            row.fingerprint for row in after.rows
        )

    def test_removed_finding_goes_fixed_then_reopened(self):
        store = FindingsStore.in_memory()
        snapshot(store, {"t.c": SRC}, "revA")
        fixed_diff = snapshot(store, {"t.c": SRC_FIXED}, "revB")
        fixed_rows = fixed_diff.fixed()
        assert len(fixed_rows) == 1
        assert fixed_rows[0].var == "r"
        entry = store.entries()[fixed_rows[0].fingerprint]
        assert entry.status == "fixed" and entry.fixed_rev == "revB"

        reopened_diff = snapshot(store, {"t.c": SRC}, "revC")
        reopened = reopened_diff.reopened()
        assert len(reopened) == 1
        assert reopened[0].var == "r"
        # The entry keeps its original first_seen across fix/reopen.
        entry = store.entries()[reopened[0].fingerprint]
        assert entry.status == "active"
        assert entry.first_seen == "revA"
        assert entry.last_seen == "revC"

    def test_statement_rewrite_rematches_via_location(self):
        store = FindingsStore.in_memory()
        snapshot(store, {"t.c": SRC}, "revA")
        rewritten = SRC.replace("int r = helper(2);", "int r = helper(200);")
        diff = snapshot(store, {"t.c": rewritten}, "revB")
        # The rewrite changes the context window of BOTH findings (the
        # neighbouring call sees it as context): each rematches via its
        # location identity instead of splitting into fixed+new.
        rematched = [row for row in diff.rows if row.rematched]
        assert {row.var for row in rematched} >= {"r"}
        assert all(row.state is Lifecycle.PERSISTENT for row in rematched)
        assert all(row.baseline_state() == "updated" for row in rematched)
        assert diff.counts()["fixed"] == 0 and diff.counts()["new"] == 0
        # The store re-keyed each entry under its new primary, keeping
        # its history.
        for row in rematched:
            entry = store.entries()[row.fingerprint]
            assert entry.first_seen == "revA" and entry.last_seen == "revB"

    def test_diff_is_read_only(self):
        store = FindingsStore.in_memory()
        snapshot(store, {"t.c": SRC}, "revA")
        project, report = analyze({"t.c": SRC_FIXED})
        diff = store.diff(report.findings, sources_of(project), rev="worktree")
        assert diff.counts()["fixed"] == 1
        # Nothing was persisted: the entry is still active.
        assert store.stats()["active"] == 2
        assert len(store.snapshots()) == 1

    def test_named_baseline_rev(self):
        store = FindingsStore.in_memory()
        snapshot(store, {"t.c": SRC}, "revA")
        snapshot(store, {"t.c": SRC_FIXED}, "revB")
        project, report = analyze({"t.c": SRC})
        against_a = store.diff(
            report.findings, sources_of(project), baseline_rev="revA"
        )
        assert against_a.counts()["persistent"] == 2

    def test_unknown_baseline_rev_raises(self):
        store = FindingsStore.in_memory()
        snapshot(store, {"t.c": SRC}, "revA")
        project, report = analyze({"t.c": SRC})
        with pytest.raises(ValueError, match="no snapshot"):
            store.diff(report.findings, sources_of(project), baseline_rev="nope")

    def test_pruned_findings_never_enter_the_store(self):
        store = FindingsStore.in_memory()
        project, report = analyze({"t.c": SRC})
        diff = store.record_snapshot(
            report.findings, sources_of(project), rev="revA"
        )
        reported_count = sum(1 for f in report.findings if f.is_reported)
        assert len(report.findings) > reported_count  # some were pruned
        assert len(diff.rows) == reported_count
        assert store.stats()["entries"] == reported_count


class TestIncrementalUpdate:
    TWO = {
        "a.c": SRC,
        "b.c": SRC.replace("helper", "other").replace("main", "run"),
    }

    def _warm(self):
        project, report = analyze(self.TWO)
        store = FindingsStore.in_memory()
        store.record_snapshot(report.findings, sources_of(project), rev="revA")
        analyzer = IncrementalAnalyzer.from_project(project, config=CONFIG)
        return project, store, analyzer

    def test_untouched_files_are_not_refingerprinted(self):
        project, store, analyzer = self._warm()
        before = {
            fp: row for fp, row in store.entries().items() if row.file == "b.c"
        }
        result = analyzer.analyze_changes(
            {"a.c": "// shift\n" + SRC}, label="edit", full_modules=True
        )
        diff = store.update_from_incremental(result, analyzer.project, rev="revB")
        # Only a.c entries appear in the scoped diff.
        assert {row.file for row in diff.rows} == {"a.c"}
        after = {
            fp: row for fp, row in store.entries().items() if row.file == "b.c"
        }
        # b.c rows untouched: same fingerprints, last_seen still revA.
        assert after == before
        assert all(row.last_seen == "revA" for row in after.values())
        # a.c rows advanced to revB.
        assert all(
            row.last_seen == "revB"
            for row in store.entries().values()
            if row.file == "a.c"
        )

    def test_removed_function_marks_findings_fixed(self):
        project, store, analyzer = self._warm()
        # Drop main() (and its findings) from a.c entirely.
        truncated = SRC.split("int main()")[0]
        result = analyzer.analyze_changes(
            {"a.c": truncated}, label="edit", full_modules=True
        )
        diff = store.update_from_incremental(result, analyzer.project, rev="revB")
        assert diff.counts()["fixed"] == 2
        assert all(
            row.status == "fixed"
            for row in store.entries().values()
            if row.file == "a.c"
        )

    def test_deleted_file_marks_findings_fixed(self):
        project, store, analyzer = self._warm()
        result = analyzer.analyze_changes(
            {"a.c": None}, label="edit", full_modules=True
        )
        diff = store.update_from_incremental(result, analyzer.project, rev="revB")
        assert diff.counts()["fixed"] == 2

    def test_incremental_update_advances_the_snapshot(self):
        project, store, analyzer = self._warm()
        result = analyzer.analyze_changes(
            {"a.c": "// shift\n" + SRC}, label="edit", full_modules=True
        )
        store.update_from_incremental(result, analyzer.project, rev="revB")
        snapshots = store.snapshots()
        assert [meta.rev for meta in snapshots] == ["revA", "revB"]
        # The revB membership covers ALL active entries (both files), not
        # just the touched scope.
        assert len(store.backend.snapshot_members("revB")) == 4


class TestSqliteBackend:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "findings.db"
        store = FindingsStore.open(path)
        snapshot(store, {"t.c": SRC}, "revA")
        snapshot(store, {"t.c": SRC_FIXED}, "revB")
        expected_entries = store.entries()
        expected_snapshots = store.snapshots()
        store.backend.close()

        reopened = FindingsStore.open(path)
        assert reopened.entries() == expected_entries
        assert reopened.snapshots() == expected_snapshots
        assert reopened.backend.snapshot_members("revA") == store.backend.snapshot_members("revA")

    def test_matches_memory_backend_exactly(self, tmp_path):
        memory = FindingsStore.in_memory()
        sqlite = FindingsStore.open(tmp_path / "findings.db")
        for store in (memory, sqlite):
            snapshot(store, {"t.c": SRC}, "revA")
            snapshot(store, {"t.c": SRC_FIXED}, "revB")
            snapshot(store, {"t.c": SRC}, "revC")
        assert memory.entries() == sqlite.entries()
        assert memory.snapshots() == sqlite.snapshots()

    def test_newer_schema_refuses_to_open(self, tmp_path):
        path = tmp_path / "findings.db"
        backend = SqliteBackend(path)
        connection = backend._connect()
        connection.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema'",
            (str(STORE_SCHEMA_VERSION + 1),),
        )
        connection.commit()
        backend.close()
        with pytest.raises(ValueError, match="newer schema"):
            SqliteBackend(path)

    def test_concurrent_readers_during_writes(self, tmp_path):
        store = FindingsStore.open(tmp_path / "findings.db")
        snapshot(store, {"t.c": SRC}, "revA")
        errors: list[Exception] = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    entries = store.entries()
                    assert len(entries) >= 2
                    store.snapshots()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for index, src in enumerate((SRC_FIXED, SRC, SRC_SHIFTED)):
                snapshot(store, {"t.c": src}, f"rev{index + 2}")
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5)
        assert errors == []

    def test_find_by_prefix(self, tmp_path):
        store = FindingsStore.open(tmp_path / "findings.db")
        snapshot(store, {"t.c": SRC}, "revA")
        fingerprint = store.active()[0].fingerprint
        assert store.find(fingerprint[:8])[0].fingerprint == fingerprint
        assert store.find("zzzz") == []


class TestTelemetry:
    def test_store_span_and_metrics(self):
        telemetry = obs.Telemetry.fresh()
        with obs.use(telemetry):
            store = FindingsStore.in_memory()
            snapshot(store, {"t.c": SRC}, "revA")
            snapshot(store, {"t.c": SRC_FIXED}, "revB")
        names = [span.name for span in telemetry.tracer.spans()]
        assert names.count("store.diff") == 2
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["store.fingerprints"] == 3  # 2 at revA + 1 at revB
        assert counters["store.hits"] == 1
        assert counters["store.misses"] == 2
        assert counters["store.lifecycle{state=new}"] == 2
        assert counters["store.lifecycle{state=fixed}"] == 1
