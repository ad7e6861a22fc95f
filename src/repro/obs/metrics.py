"""Metrics registry: counters, gauges and histograms with deterministic merge.

One :class:`MetricsRegistry` collects everything a single pipeline run
records.  Engine workers (threads *or* processes) each record into their
own module-local registry, hand back a plain-dict :meth:`snapshot`, and
the scheduler merges those snapshots **in sorted path order** — so the
merged registry is identical no matter which executor ran the modules or
in what order they finished.

Conventions
-----------

* Metric identity is ``name`` plus an optional label set; the canonical
  key is ``name{k=v,...}`` with label keys sorted (Prometheus-style).
* The analysis pipeline records only content facts here (counts,
  iterations, kill tallies), so its merged registry is bit-identical
  across executors and cache states.  Its stage timings are spans (see
  :mod:`repro.obs.trace`).  Timing metrics of the service and router end
  in ``_seconds``.
* Merge semantics: counters add, histograms concatenate (snapshots sort
  values, so merge order never shows), gauges keep the maximum.
* A long-lived daemon's registry is built with ``window=DAEMON_WINDOW``:
  each histogram keeps its latest observations only, so memory and the
  ``stats`` reply stay bounded, while its count and sum stay lifetime
  totals (a snapshot carries them under ``totals`` once values dropped
  out).  Per-run registries keep every observation.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable, Mapping

# Bump whenever a metric is renamed/removed or its meaning changes:
# metric snapshots and the ``--stats-out`` JSONL run records carry this so
# readers know when the schema drifted.
METRICS_SCHEMA_VERSION = 2

#: Observations a daemon's histograms keep: the window their min, max and
#: percentiles cover.
DAEMON_WINDOW = 512


def metric_key(name: str, labels: Mapping[str, object] | None = None) -> str:
    """Canonical ``name{k=v,...}`` key (labels sorted by key)."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def base_name(key: str) -> str:
    """The metric name with any ``{labels}`` suffix removed."""
    return key.split("{", 1)[0]


def parse_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`metric_key` (labels come back as strings)."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: dict[str, str] = {}
    for pair in rest.rstrip("}").split(","):
        if pair:
            label, _, value = pair.partition("=")
            labels[label] = value
    return name, labels


def nearest_rank(ordered: list[float], fraction: float) -> float:
    """The nearest-rank ``fraction`` percentile of sorted, non-empty values."""
    count = len(ordered)
    return ordered[max(0, min(count - 1, int(fraction * count + 0.5) - 1))]


def summarize(
    values: Iterable[float], totals: tuple[int, float] | None = None
) -> dict[str, float]:
    """count/sum/min/max/mean plus nearest-rank p50/p90/p99.  ``totals``
    is a windowed histogram's lifetime (count, sum), which count, sum and
    mean then report; min, max and percentiles cover ``values``."""
    ordered = sorted(values)
    if not ordered:
        return {"count": 0, "sum": 0.0}
    count, total = totals if totals is not None else (len(ordered), sum(ordered))
    return {
        "count": count,
        "sum": total,
        "min": ordered[0],
        "max": ordered[-1],
        "mean": total / count,
        "p50": nearest_rank(ordered, 0.50),
        "p90": nearest_rank(ordered, 0.90),
        "p99": nearest_rank(ordered, 0.99),
    }


def summarize_snapshot(snapshot: dict) -> dict:
    """A compact form for JSONL/BENCH files: histograms collapse to their
    summary statistics instead of raw value lists."""
    totals = snapshot.get("totals", {})
    return {
        "schema": snapshot.get("schema", METRICS_SCHEMA_VERSION),
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
        "histograms": {
            key: summarize(values, totals.get(key))
            for key, values in snapshot.get("histograms", {}).items()
        },
    }


class MetricsRegistry:
    """Thread-safe collection of counters, gauges and histograms.

    ``window`` bounds each histogram to its latest ``window`` values
    (see :data:`DAEMON_WINDOW`); ``None`` keeps every observation."""

    def __init__(self, window: int | None = None) -> None:
        self._lock = threading.Lock()
        self._window = window
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, deque[float]] = {}
        # Lifetime [count, sum] per histogram, windowed or not.
        self._totals: dict[str, list[float]] = {}

    # -- recording -------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels) -> None:
        key = metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        key = metric_key(name, labels)
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, value: float, **labels) -> None:
        key = metric_key(name, labels)
        with self._lock:
            self._extend(key, (value,), 1, value)

    def _extend(self, key: str, values: Iterable[float], count: int, total: float) -> None:
        retained = self._histograms.get(key)
        if retained is None:
            retained = self._histograms[key] = deque(maxlen=self._window)
            self._totals[key] = [0, 0]
        retained.extend(values)
        totals = self._totals[key]
        totals[0] += count
        totals[1] += total

    # -- reading ---------------------------------------------------------

    def counter(self, name: str, **labels) -> float:
        with self._lock:
            return self._counters.get(metric_key(name, labels), 0)

    def gauge(self, name: str, **labels) -> float | None:
        with self._lock:
            return self._gauges.get(metric_key(name, labels))

    def histogram(self, name: str, **labels) -> list[float]:
        with self._lock:
            return list(self._histograms.get(metric_key(name, labels), ()))

    def counters_by_name(self, name: str) -> dict[str, float]:
        """All counters whose base name is ``name``, keyed by full key."""
        with self._lock:
            return {
                key: value
                for key, value in self._counters.items()
                if base_name(key) == name
            }

    # -- snapshot / merge ------------------------------------------------

    def snapshot(self) -> dict:
        """A plain, picklable, order-independent dict of everything
        recorded so far (histogram values sorted).  Histograms whose
        window dropped values add their lifetime [count, sum] under
        ``totals``."""
        with self._lock:
            snapshot = {
                "schema": METRICS_SCHEMA_VERSION,
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    key: sorted(values)
                    for key, values in sorted(self._histograms.items())
                },
            }
            totals = {
                key: list(self._totals[key])
                for key, values in sorted(self._histograms.items())
                if self._totals[key][0] > len(values)
            }
            if totals:
                snapshot["totals"] = totals
            return snapshot

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot (from a worker-local registry) into this one."""
        totals = snapshot.get("totals", {})
        with self._lock:
            for key, value in snapshot.get("counters", {}).items():
                self._counters[key] = self._counters.get(key, 0) + value
            for key, value in snapshot.get("gauges", {}).items():
                current = self._gauges.get(key)
                self._gauges[key] = value if current is None else max(current, value)
            for key, values in snapshot.get("histograms", {}).items():
                count, total = totals.get(key, (len(values), sum(values)))
                self._extend(key, values, count, total)

    @classmethod
    def merged(cls, snapshots: Iterable[dict]) -> "MetricsRegistry":
        registry = cls()
        for snapshot in snapshots:
            registry.merge(snapshot)
        return registry
