"""Guards for the single monotonic clock source (repro.obs.clock).

Durations across the tree — ``IncrementalResult.seconds``, span times,
metric histograms, stage timings — must come from one monotonic clock so
daemon uptimes and benchmark timings never go backwards under NTP
slews.  These tests pin the clock's properties and grep the source tree
so a stray ``time.time()`` (or ad-hoc ``time.perf_counter()``) cannot
sneak back into a timing path.
"""

from __future__ import annotations

import re
import time
from pathlib import Path

from repro.obs import clock

SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"

# Modules that measure durations and therefore must route through
# repro.obs.clock.monotonic rather than picking a clock themselves.
TIMED_MODULES = (
    "core/incremental.py",
    "core/valuecheck.py",
    "engine/scheduler.py",
    "eval/runner.py",
    "eval/suite.py",
    "eval/pointer_comparison.py",
    "obs/trace.py",
)


class TestClockSource:
    def test_monotonic_is_perf_counter(self):
        # perf_counter is the repo's historical clock and the one the
        # benchmark (perfbench) times with, so the two stay comparable.
        assert clock.monotonic is time.perf_counter

    def test_monotonic_never_goes_backwards(self):
        samples = [clock.monotonic() for _ in range(100)]
        assert samples == sorted(samples)

    def test_wall_clock_is_epoch_seconds(self):
        now = clock.wall_clock()
        # Sanity window: after 2020-01-01 and before 2100.
        assert 1577836800 < now < 4102444800


class TestNoAdHocClocks:
    def test_no_wall_clock_durations_anywhere(self):
        """``time.time()`` must not appear in src/repro outside clock.py
        (timestamps are only available via clock.wall_clock)."""
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "clock.py":
                continue
            if re.search(r"\btime\.time\(", path.read_text()):
                offenders.append(str(path.relative_to(SRC)))
        assert offenders == []

    def test_timed_modules_use_shared_monotonic(self):
        """Timing modules import the shared clock and never call
        ``time.perf_counter`` / ``time.monotonic`` directly."""
        for rel in TIMED_MODULES:
            text = (SRC / rel).read_text()
            assert "from repro.obs.clock import monotonic" in text, rel
            assert not re.search(r"\btime\.(perf_counter|monotonic)\(", text), rel
