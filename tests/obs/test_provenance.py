"""Tests for the provenance log core (repro.obs.provenance)."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.provenance import (
    PROVENANCE_SCHEMA_VERSION,
    ProvenanceLog,
    PrunerVerdict,
    format_evidence,
    render_record,
    render_records,
)


def _detection(key="a.c:f:x:3:dead_store", **overrides):
    base = {
        "key": key,
        "file": "a.c",
        "function": "f",
        "var": "x",
        "line": 3,
        "kind": "dead_store",
        "store_kind": None,
        "callee": None,
        "resolved_callees": [],
        "overwrite_lines": [],
        "param_index": -1,
        "decl_line": 0,
        "is_field": False,
        "void_cast": False,
        "increment_delta": None,
    }
    base.update(overrides)
    return base


class TestRecordLifecycle:
    def test_detection_starts_detected(self):
        log = ProvenanceLog()
        log.add_detection(_detection())
        (record,) = log.records()
        assert record.status == "detected"
        assert record.detection["file"] == "a.c"

    def test_non_cross_scope_resolution_sets_status(self):
        log = ProvenanceLog()
        log.add_detection(_detection())
        log.set_resolution("a.c:f:x:3:dead_store", {"cross_scope": False, "reason": "r"})
        assert log.get("a.c:f:x:3:dead_store").status == "not_cross_scope"

    def test_killing_verdict_sets_pruned(self):
        log = ProvenanceLog()
        log.add_detection(_detection())
        key = "a.c:f:x:3:dead_store"
        log.add_verdict(key, PrunerVerdict(pruner="cursor", pruned=False, evidence={}))
        assert log.get(key).status == "detected"
        log.add_verdict(key, PrunerVerdict(pruner="unused_hints", pruned=True, evidence={}))
        record = log.get(key)
        assert record.status == "pruned"
        assert record.pruned_by == "unused_hints"
        assert [v.pruner for v in record.verdicts] == ["cursor", "unused_hints"]

    def test_as_dict_carries_schema(self):
        log = ProvenanceLog()
        log.add_detection(_detection())
        assert log.snapshot()[0]["schema"] == PROVENANCE_SCHEMA_VERSION


class TestMergeAndOrdering:
    def test_records_sorted_by_key(self):
        log = ProvenanceLog()
        log.merge_detections(
            [_detection(key="z.c:f:x:1:dead_store"), _detection(key="a.c:f:x:1:dead_store")]
        )
        assert [r.key for r in log.records()] == [
            "a.c:f:x:1:dead_store",
            "z.c:f:x:1:dead_store",
        ]

    def test_merge_order_does_not_change_jsonl(self):
        first, second = ProvenanceLog(), ProvenanceLog()
        slices = [
            _detection(key="b.c:g:y:2:dead_store", file="b.c"),
            _detection(key="a.c:f:x:3:dead_store"),
        ]
        first.merge_detections(slices)
        second.merge_detections(list(reversed(slices)))
        assert first.to_jsonl() == second.to_jsonl()

    def test_jsonl_lines_parse_and_sort_keys(self):
        log = ProvenanceLog()
        log.add_detection(_detection())
        (line,) = log.to_jsonl().splitlines()
        payload = json.loads(line)
        assert payload["key"] == "a.c:f:x:3:dead_store"
        assert line == json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def test_find_matches_key_fragment(self):
        log = ProvenanceLog()
        log.merge_detections(
            [_detection(key="a.c:f:x:1:dead_store"), _detection(key="b.c:g:y:2:dead_store")]
        )
        assert [r.key for r in log.find("a.c")] == ["a.c:f:x:1:dead_store"]
        assert log.find("nope") == []


class TestAggregates:
    def test_pruned_by_counts_come_from_verdicts(self):
        log = ProvenanceLog()
        for index in range(3):
            key = f"a.c:f:v{index}:{index}:dead_store"
            log.add_detection(_detection(key=key))
            log.set_resolution(key, {"cross_scope": True})
        log.add_verdict(
            "a.c:f:v0:0:dead_store", PrunerVerdict(pruner="cursor", pruned=True)
        )
        log.add_verdict(
            "a.c:f:v1:1:dead_store", PrunerVerdict(pruner="cursor", pruned=True)
        )
        aggregates = log.aggregates()
        assert aggregates["candidates"] == 3
        assert aggregates["explained"] == 3
        assert aggregates["pruned_by"] == {"cursor": 2}
        assert aggregates["statuses"]["pruned"] == 2


class TestRendering:
    def test_render_shows_all_sections(self):
        log = ProvenanceLog()
        key = "a.c:f:x:3:dead_store"
        log.add_detection(_detection(callee="status", overwrite_lines=[4]))
        log.set_resolution(
            key,
            {
                "cross_scope": True,
                "reason": "definition overwritten by other authors",
                "def_author": "alice",
                "counterpart_authors": ["bob"],
                "peer_sites": 1,
                "introducing_author": "bob",
                "introduced_day": 9,
            },
        )
        log.add_verdict(
            key, PrunerVerdict(pruner="cursor", pruned=False, evidence={"reason": "no"})
        )
        log.set_ranking(
            key,
            {
                "rank": 1,
                "familiarity": 2.951,
                "breakdown": {
                    "model": "dok",
                    "fa": 0,
                    "dl": 2,
                    "ac": 2,
                    "alpha0": 3.1,
                    "term_fa": 0.0,
                    "term_dl": 0.4,
                    "term_ac": 0.549,
                    "score": 2.951,
                },
            },
        )
        text = render_record(log.get(key))
        assert "detection: dead_store of `x`" in text
        assert "value from call to `status`" in text
        assert "cross_scope=True" in text
        assert "counterpart authors (1 site(s)): bob" in text
        assert "cursor" in text and "pass" in text
        assert "rank #1" in text
        assert "DOK = 3.10" in text and "acceptances=2" in text

    def test_format_evidence_sorts_and_rounds(self):
        assert format_evidence({"b": 0.5, "a": 1}) == " (a=1, b=0.500)"
        assert format_evidence({}) == ""


@dataclass(frozen=True)
class _Finding:
    """What ``ProvenanceLog.finalize`` reads of a finding."""

    key: str
    rank: int | None = None
    pruned_by: str | None = None
    is_reported: bool = False


KEY = "a.c:f:x:3:dead_store"

#: One call of each ``ProvenanceLog`` mutator, each changing the record.
MUTATIONS = {
    "add_detection": lambda log: log.add_detection(_detection(line=4, callee="g")),
    "set_resolution": lambda log: log.set_resolution(
        KEY, {"cross_scope": False, "reason": "same author"}
    ),
    "add_verdict": lambda log: log.add_verdict(
        KEY, PrunerVerdict(pruner="cursor", pruned=True, evidence={"delta": 2})
    ),
    "set_ranking": lambda log: log.set_ranking(KEY, {"rank": 3, "familiarity": 0.5}),
    "finalize": lambda log: log.finalize([_Finding(KEY, rank=3, is_reported=True)]),
}


def _views(record) -> tuple[dict, str]:
    return record.as_dict(), record.rendered()


def _uncached_views(record) -> tuple[dict, str]:
    """The views of a copy that never cached anything."""
    copy = replace(record)
    return copy.as_dict(), render_record(copy)


class TestCachedViews:
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_each_mutator_clears_the_record_it_touches(self, mutation):
        log = ProvenanceLog()
        log.add_detection(_detection())
        record = log.get(KEY)
        cached = _views(record)
        assert json.dumps(cached[0], sort_keys=True) == json.dumps(
            _uncached_views(record)[0], sort_keys=True
        )
        MUTATIONS[mutation](log)
        assert log.get(KEY) is record
        assert _views(record) == _uncached_views(record)
        assert _views(record) != cached

    def test_views_are_built_once(self):
        log = ProvenanceLog()
        log.add_detection(_detection())
        record = log.get(KEY)
        assert record.as_dict() is record.as_dict()
        assert record.rendered() is record.rendered()
        assert render_records([record, record]) == render_record(record) + "\n\n" + render_record(
            record
        )

    def test_restamping_a_spliced_copy_leaves_the_earlier_log_alone(self):
        log = ProvenanceLog()
        log.add_detection(_detection())
        log.set_ranking(KEY, {"rank": 1, "familiarity": 0.25})
        log.finalize([_Finding(KEY, rank=1, is_reported=True)])
        earlier = log.get(KEY)
        handed_out = json.dumps(earlier.as_dict(), sort_keys=True), earlier.rendered()

        spliced = log.splice(set(), ProvenanceLog())
        copy = spliced.get(KEY)
        assert copy is not earlier and copy._dict is None and copy._text is None
        spliced.set_ranking(KEY, {"rank": 2, "familiarity": 0.75})
        spliced.finalize([_Finding(KEY, rank=2, is_reported=True)])

        assert (json.dumps(earlier.as_dict(), sort_keys=True), earlier.rendered()) == handed_out
        assert "(rank #1)" in earlier.rendered()
        assert "(rank #2)" in copy.rendered()
        assert _views(copy) == _uncached_views(copy)

    def test_splice_shares_unreported_and_drops_dropped_records(self):
        log = ProvenanceLog()
        for key in ("a.c:f:x:3:dead_store", "a.c:f:y:4:dead_store", "b.c:g:z:5:dead_store"):
            log.add_detection(_detection(key=key))
        log.finalize([_Finding("a.c:f:y:4:dead_store", rank=1, is_reported=True)])
        fresh = ProvenanceLog()
        fresh.add_detection(_detection(key="b.c:g:z:6:dead_store"))
        spliced = log.splice({"b.c:g:z:5:dead_store"}, fresh)
        assert [record.key for record in spliced.records()] == [
            "a.c:f:x:3:dead_store",
            "a.c:f:y:4:dead_store",
            "b.c:g:z:6:dead_store",
        ]
        assert spliced.get("a.c:f:x:3:dead_store") is log.get("a.c:f:x:3:dead_store")
        assert spliced.get("a.c:f:y:4:dead_store") is not log.get("a.c:f:y:4:dead_store")
        assert spliced.get("b.c:g:z:6:dead_store") is fresh.get("b.c:g:z:6:dead_store")


_KEYS = ("a.c:f:x:3:dead_store", "a.c:f:y:4:dead_store")

_OPERATIONS = st.one_of(
    st.tuples(st.just("add_detection"), st.sampled_from(_KEYS), st.integers(1, 9)),
    st.tuples(st.just("set_resolution"), st.sampled_from(_KEYS), st.booleans()),
    st.tuples(
        st.just("add_verdict"),
        st.sampled_from(_KEYS),
        st.sampled_from(("cursor", "unused_hints", "peer_definition")),
        st.booleans(),
    ),
    st.tuples(st.just("set_ranking"), st.sampled_from(_KEYS), st.integers(1, 9)),
    st.tuples(
        st.just("finalize"),
        st.sampled_from(_KEYS),
        st.one_of(st.none(), st.integers(1, 9)),
        st.booleans(),
    ),
    st.tuples(st.just("splice"), st.sampled_from(_KEYS)),
    st.tuples(st.just("read"), st.sampled_from(_KEYS)),
)


def _apply(log: ProvenanceLog, operation: tuple) -> ProvenanceLog:
    kind, key, *args = operation
    if kind == "add_detection":
        log.add_detection(_detection(key=key, line=args[0]))
    elif kind == "set_resolution":
        log.set_resolution(key, {"cross_scope": args[0], "reason": "r"})
    elif kind == "add_verdict":
        log.add_verdict(key, PrunerVerdict(pruner=args[0], pruned=args[1], evidence={"n": 1}))
    elif kind == "set_ranking":
        log.set_ranking(key, {"rank": args[0], "familiarity": args[0] / 10})
    elif kind == "finalize":
        rank, reported = args
        log.finalize([_Finding(key, rank=rank, is_reported=reported)])
    elif kind == "splice":
        return log.splice({key}, ProvenanceLog())
    else:
        for record in log.records():
            _views(record)
    return log


@settings(max_examples=100, deadline=None)
@given(st.lists(_OPERATIONS, max_size=25))
def test_cached_views_always_match_uncached_ones(operations):
    """After any sequence of mutations, splices and reads, every record
    of every log shows the views of a copy that never cached anything.
    Splices share unreported records, so the newest log's mutators reach
    earlier logs' records too; their caches must follow."""
    logs = [ProvenanceLog()]
    for key in _KEYS:
        logs[0].add_detection(_detection(key=key))
    for operation in operations:
        current = _apply(logs[-1], operation)
        if current is not logs[-1]:
            logs.append(current)
        for log in logs:
            for record in log.records():
                assert _views(record) == _uncached_views(record)
