"""Fast tier-1 smoke of the load-generation harness.

Runs benchmarks/loadgen.py's full comparison pipeline at a deliberately
tiny configuration — real worker processes, real TCP, real mixed
traffic — asserting every request completes and that a check project's
finding fingerprints are identical on the single daemon and behind the
router.  Throughput numbers at this size are noise and are not asserted;
the routed topology's speed is gated by perfbench's ``routed_churn``
workload.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from loadgen import (  # noqa: E402
    LoadgenConfig,
    build_check_project,
    build_projects,
    run_comparison,
)


SMOKE = LoadgenConfig(
    workers=2,
    clients=3,
    requests_per_client=4,
    projects=3,
    max_sessions=2,
    worker_threads=1,
    scale=0.02,
    seed=11,
)


class TestProjectPool:
    def test_pool_is_deterministic(self):
        first = build_projects(SMOKE)
        second = build_projects(SMOKE)
        assert [recipe.project_id for recipe in first] == [
            recipe.project_id for recipe in second
        ]
        assert [recipe.sources for recipe in first] == [
            recipe.sources for recipe in second
        ]

    def test_diff_variants_are_valid_distinct_edits(self):
        recipe = build_projects(SMOKE)[0]
        assert len(recipe.diff_variants) == 3
        texts = [next(iter(variant.values())) for variant in recipe.diff_variants]
        assert len(set(texts)) == 3
        for variant in recipe.diff_variants:
            (path, text), = variant.items()
            assert path in recipe.sources
            assert text.startswith(recipe.sources[path])  # append-only edit

    def test_check_project_outside_the_load_pool(self):
        pool_ids = {recipe.project_id for recipe in build_projects(SMOKE)}
        assert build_check_project(SMOKE).project_id not in pool_ids


class TestComparisonSmoke:
    @pytest.fixture(scope="class")
    def payload(self):
        return run_comparison(SMOKE)

    def test_all_requests_complete(self, payload):
        expected = SMOKE.clients * SMOKE.requests_per_client
        for topology in ("single", "routed"):
            assert payload[topology]["requests"] == expected
            assert payload[topology]["completed"] == expected
            assert payload[topology]["errors"] == 0

    def test_fingerprints_identical_across_topologies(self, payload):
        assert payload["fingerprints_identical"] is True
        assert payload["fingerprint_count"] >= 1

    def test_capacity_pressure_really_differs(self, payload):
        # The comparison's premise: the single process is forced past its
        # session cap (3 projects, cap 2 → evictions → client re-opens),
        # while the routed fleet's aggregate capacity absorbs the pool.
        assert payload["single"]["reopens"] > 0
        assert payload["routed"]["reopens"] == 0
