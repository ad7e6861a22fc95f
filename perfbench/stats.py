"""Metric arithmetic: quantiles with the tail rule, per-layer rows, and the
host drift probe."""

from __future__ import annotations

import math
import statistics
import time

import spans as spans_module

#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10


def quantile(samples: list[float | None], q: float) -> float | None:
    """The ``q`` quantile of ``samples``; ``None`` stands for a failed
    operation, which misses every latency limit (it sorts as +inf).

    The median is the usual middle value.  A higher quantile is the
    nearest-rank value and exists only when at least TAIL_MIN_BEYOND
    samples lie beyond its rank.  Returns None when the quantile does not
    exist or falls on a failed operation.
    """
    if not samples:
        return None
    values = sorted(math.inf if s is None else s for s in samples)
    if q == 0.5:
        value = statistics.median(values)
    else:
        rank = math.ceil(q * len(values))  # 1-based nearest rank
        if len(values) - rank < TAIL_MIN_BEYOND:
            return None
        value = values[rank - 1]
    return None if math.isinf(value) else value


def error_rate(samples: list[float | None]) -> float:
    """Failed, refused or timed-out operations over attempted ones."""
    return sum(s is None for s in samples) / len(samples) if samples else 0.0


def layer_rows(result) -> tuple[dict[str, float], float, float]:
    """Per-operation self time (ms) of every layer plus ``residual_ms``,
    and the traced wall time and residual in seconds."""
    totals = spans_module.self_times(result.spans)
    wall = spans_module.root_seconds(result.spans)
    ops = max(result.traced_ops, 1)
    rows = {f"{layer}_ms": totals.get(layer, 0.0) * 1000 / ops for layer in spans_module.LAYERS}
    residual = totals.get(spans_module.OP, 0.0)
    rows["residual_ms"] = residual * 1000 / ops
    return rows, wall, residual


def host_calib_ms(repeats: int = 9) -> float:
    """Median time of a fixed pure-Python loop that runs no repo code: how
    fast this host runs Python right now."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += (i * i) % 7
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1000
