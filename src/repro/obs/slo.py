"""SLO tracking: sliding-window latency gauges, error budgets, burn rates.

A histogram tells you what latency *was over the process lifetime*; an
operator paging on a daemon needs what it *is right now*.  Each
:class:`SloTracker` pairs a declarative :class:`SloConfig` (which
request types it covers, the latency target, the error budget) with a
sliding window of recent observations and derives:

* rolling **p50/p95/p99** over the window;
* the **bad fraction** — observations that errored *or* overran the
  latency target (a latency SLO without latency in the budget is a
  vanity metric);
* the **burn rate** — bad fraction divided by the error budget.  Burn
  rate 1.0 means the budget is being consumed exactly as provisioned;
  14.4 is the classic "page now" multiplier.  Burn above 1.0 for a full
  window marks the SLO ``breached``.

``health`` reports one status block per SLO (see docs/SERVICE.md); the
tracker itself is service-agnostic and stdlib-only.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from repro.obs.clock import monotonic
from repro.obs.metrics import nearest_rank


@dataclass(frozen=True)
class SloConfig:
    """One declarative objective.

    ``request_types`` restricts which request kinds the tracker ingests
    (empty tuple = all).  ``target_seconds`` is the per-request latency
    objective; ``error_budget`` the tolerated bad fraction (0.01 = 99%
    of requests in-target and successful); ``window_seconds`` the
    sliding evaluation window.
    """

    name: str
    target_seconds: float = 5.0
    error_budget: float = 0.01
    window_seconds: float = 300.0
    request_types: tuple[str, ...] = ()

    def covers(self, kind: str) -> bool:
        return not self.request_types or kind in self.request_types

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "target_seconds": self.target_seconds,
            "error_budget": self.error_budget,
            "window_seconds": self.window_seconds,
            "request_types": list(self.request_types),
        }


DEFAULT_SLOS = (
    # Every queued request answered successfully within 5s at 99%.
    SloConfig(name="requests", target_seconds=5.0, error_budget=0.01),
    # The warm incremental path — the service's whole reason to exist —
    # held to a much tighter latency target.
    SloConfig(
        name="warm_diff",
        target_seconds=1.0,
        error_budget=0.05,
        request_types=("analyze_diff",),
    ),
)


class SloTracker:
    """Sliding-window observations + derived status for one SLO."""

    def __init__(self, config: SloConfig):
        if config.error_budget <= 0:
            raise ValueError("error_budget must be positive")
        if config.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.config = config
        self._lock = threading.Lock()
        # (monotonic timestamp, latency seconds, bad)
        self._window: deque[tuple[float, float, bool]] = deque()
        self._total = 0
        self._total_bad = 0

    def record(self, kind: str, seconds: float, ok: bool, now: float | None = None) -> bool:
        """Ingest one finished request; returns whether it was covered."""
        if not self.config.covers(kind):
            return False
        stamp = monotonic() if now is None else now
        bad = (not ok) or seconds > self.config.target_seconds
        with self._lock:
            self._window.append((stamp, seconds, bad))
            self._total += 1
            self._total_bad += bad
            self._prune_locked(stamp)
        return True

    def _prune_locked(self, now: float) -> None:
        horizon = now - self.config.window_seconds
        while self._window and self._window[0][0] < horizon:
            self._window.popleft()

    def status(self, now: float | None = None) -> dict:
        """The health block for this SLO over the current window."""
        stamp = monotonic() if now is None else now
        with self._lock:
            self._prune_locked(stamp)
            rows = list(self._window)
            total, total_bad = self._total, self._total_bad
        latencies = sorted(seconds for _, seconds, _ in rows)
        bad = sum(1 for _, _, is_bad in rows if is_bad)
        count = len(rows)
        bad_fraction = bad / count if count else 0.0
        burn_rate = bad_fraction / self.config.error_budget
        if not count:
            status = "idle"
        elif burn_rate > 1.0:
            status = "breached"
        else:
            status = "ok"
        return {
            **self.config.as_dict(),
            "status": status,
            "window_count": count,
            "window_bad": bad,
            "bad_fraction": round(bad_fraction, 6),
            "burn_rate": round(burn_rate, 4),
            "p50_seconds": nearest_rank(latencies, 0.50) if count else None,
            "p95_seconds": nearest_rank(latencies, 0.95) if count else None,
            "p99_seconds": nearest_rank(latencies, 0.99) if count else None,
            "lifetime_count": total,
            "lifetime_bad": total_bad,
        }


def build_trackers(configs: tuple[SloConfig, ...] = DEFAULT_SLOS) -> list[SloTracker]:
    return [SloTracker(config) for config in configs]
