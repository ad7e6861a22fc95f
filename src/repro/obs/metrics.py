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
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

# Bump whenever a metric is renamed/removed or its meaning changes:
# metric snapshots and the ``--stats-out`` JSONL run records carry this so
# readers know when the schema drifted.
METRICS_SCHEMA_VERSION = 2


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


def summarize(values: Iterable[float]) -> dict[str, float]:
    """count/sum/min/max/mean plus nearest-rank p50/p90/p99."""
    ordered = sorted(values)
    if not ordered:
        return {"count": 0, "sum": 0.0}
    count = len(ordered)
    total = sum(ordered)

    def pct(fraction: float) -> float:
        rank = max(0, min(count - 1, int(fraction * count + 0.5) - 1))
        return ordered[rank]

    return {
        "count": count,
        "sum": total,
        "min": ordered[0],
        "max": ordered[-1],
        "mean": total / count,
        "p50": pct(0.50),
        "p90": pct(0.90),
        "p99": pct(0.99),
    }


def summarize_snapshot(snapshot: dict) -> dict:
    """A compact form for JSONL/BENCH files: histograms collapse to their
    summary statistics instead of raw value lists."""
    return {
        "schema": snapshot.get("schema", METRICS_SCHEMA_VERSION),
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
        "histograms": {
            key: summarize(values)
            for key, values in snapshot.get("histograms", {}).items()
        },
    }


class MetricsRegistry:
    """Thread-safe collection of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, list[float]] = {}

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
            self._histograms.setdefault(key, []).append(value)

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
        recorded so far (histogram values sorted)."""
        with self._lock:
            return {
                "schema": METRICS_SCHEMA_VERSION,
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    key: sorted(values)
                    for key, values in sorted(self._histograms.items())
                },
            }

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot (from a worker-local registry) into this one."""
        with self._lock:
            for key, value in snapshot.get("counters", {}).items():
                self._counters[key] = self._counters.get(key, 0) + value
            for key, value in snapshot.get("gauges", {}).items():
                current = self._gauges.get(key)
                self._gauges[key] = value if current is None else max(current, value)
            for key, values in snapshot.get("histograms", {}).items():
                self._histograms.setdefault(key, []).extend(values)

    @classmethod
    def merged(cls, snapshots: Iterable[dict]) -> "MetricsRegistry":
        registry = cls()
        for snapshot in snapshots:
            registry.merge(snapshot)
        return registry
