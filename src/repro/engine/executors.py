"""Pluggable executors for fanning per-module work across workers.

Both share one contract: ``map(fn, items)`` applies ``fn`` to each item
and returns results **in input order**, which is what makes the engine's
merge deterministic regardless of completion order.

* ``serial``  — plain loop; zero overhead, the baseline and the default.
* ``process`` — :class:`~concurrent.futures.ProcessPoolExecutor`.  True
  parallelism on multicore hosts; work items carry source text and are
  re-lowered in the worker.
"""

from __future__ import annotations

import argparse
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

EXECUTOR_KINDS = ("serial", "process")


def default_workers() -> int:
    return os.cpu_count() or 1


class SerialExecutor:
    kind = "serial"
    workers = 1

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        return [fn(item) for item in items]


class ProcessExecutor:
    kind = "process"

    def __init__(self, workers: int | None = None):
        self.workers = default_workers() if workers is None else workers

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        items = list(items)
        if len(items) <= 1 or self.workers == 1:
            return [fn(item) for item in items]
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(fn, items, chunksize=max(1, len(items) // (self.workers * 4))))


Executor = SerialExecutor | ProcessExecutor


def make_executor(kind: str, workers: int | None = None) -> Executor:
    """The executor named ``kind``; ``workers`` defaults to every core and
    must be at least 1 when given."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    if kind == "serial":
        return SerialExecutor()
    if kind == "process":
        return ProcessExecutor(workers)
    raise ValueError(f"unknown executor {kind!r} (expected one of {EXECUTOR_KINDS})")


def positive_int(text: str) -> int:
    """argparse ``type`` for worker and thread counts: an integer ≥ 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value
