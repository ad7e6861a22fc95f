"""SLO trackers: window pruning, bad classification, burn rate, status."""

from __future__ import annotations

import pytest

from repro.obs import DEFAULT_SLOS, SloConfig, SloTracker, build_trackers


def _tracker(**overrides) -> SloTracker:
    defaults = dict(
        name="t", target_seconds=1.0, error_budget=0.1, window_seconds=60.0
    )
    defaults.update(overrides)
    return SloTracker(SloConfig(**defaults))


class TestConfig:
    def test_covers_all_types_when_unrestricted(self):
        config = SloConfig(name="any")
        assert config.covers("analyze") and config.covers("gate")

    def test_covers_restricted(self):
        config = SloConfig(name="warm", request_types=("analyze_diff",))
        assert config.covers("analyze_diff")
        assert not config.covers("analyze")

    def test_validation(self):
        with pytest.raises(ValueError):
            SloTracker(SloConfig(name="bad", error_budget=0.0))
        with pytest.raises(ValueError):
            SloTracker(SloConfig(name="bad", window_seconds=0.0))

    def test_defaults_build(self):
        trackers = build_trackers(DEFAULT_SLOS)
        assert [tracker.config.name for tracker in trackers] == [
            "requests",
            "warm_diff",
        ]


class TestRecord:
    def test_uncovered_types_ignored(self):
        tracker = _tracker(request_types=("analyze",))
        assert not tracker.record("gate", 0.1, ok=True, now=1.0)
        assert tracker.status(now=1.0)["status"] == "idle"

    def test_bad_is_error_or_over_target(self):
        tracker = _tracker(target_seconds=1.0)
        tracker.record("analyze", 0.5, ok=True, now=1.0)  # good
        tracker.record("analyze", 1.5, ok=True, now=2.0)  # too slow
        tracker.record("analyze", 0.5, ok=False, now=3.0)  # errored
        status = tracker.status(now=3.0)
        assert status["window_count"] == 3
        assert status["window_bad"] == 2

    def test_window_prunes_old_observations(self):
        tracker = _tracker(window_seconds=10.0)
        tracker.record("analyze", 5.0, ok=False, now=0.0)  # bad, will age out
        tracker.record("analyze", 0.1, ok=True, now=11.0)
        status = tracker.status(now=11.0)
        assert status["window_count"] == 1
        assert status["window_bad"] == 0
        assert status["lifetime_count"] == 2
        assert status["lifetime_bad"] == 1


class TestStatus:
    def test_idle_with_no_observations(self):
        assert _tracker().status(now=0.0)["status"] == "idle"

    def test_ok_within_budget(self):
        tracker = _tracker(error_budget=0.5)
        tracker.record("analyze", 0.1, ok=True, now=1.0)
        tracker.record("analyze", 9.0, ok=True, now=2.0)  # bad: 50% == budget
        status = tracker.status(now=2.0)
        assert status["status"] == "ok"
        assert status["burn_rate"] == pytest.approx(1.0)

    def test_breached_over_budget(self):
        tracker = _tracker(error_budget=0.1)
        tracker.record("analyze", 5.0, ok=True, now=1.0)  # 100% bad
        status = tracker.status(now=1.0)
        assert status["status"] == "breached"
        assert status["burn_rate"] == pytest.approx(10.0)
        assert status["bad_fraction"] == pytest.approx(1.0)

    def test_percentiles_over_window(self):
        tracker = _tracker(target_seconds=100.0)
        for index in range(1, 11):
            tracker.record("analyze", index / 10.0, ok=True, now=float(index))
        status = tracker.status(now=10.0)
        assert status["p50_seconds"] == pytest.approx(0.5)
        assert status["p99_seconds"] == pytest.approx(1.0)
        assert status["p95_seconds"] >= status["p50_seconds"]

    def test_p95_is_the_nearest_rank_p95(self):
        # Nearest rank: the 95th percentile of 20 values is the 19th.
        tracker = _tracker(target_seconds=100.0)
        for seconds in range(1, 21):
            tracker.record("analyze", float(seconds), ok=True, now=float(seconds))
        status = tracker.status(now=20.0)
        assert status["p50_seconds"] == 10.0
        assert status["p95_seconds"] == 19.0
        assert status["p99_seconds"] == 20.0

    def test_idle_window_has_no_percentiles(self):
        status = _tracker().status(now=0.0)
        assert status["p50_seconds"] is None
        assert status["p95_seconds"] is None
        assert status["p99_seconds"] is None
