"""Parallel, cache-aware analysis engine.

Layers (see docs/PERFORMANCE.md):

* :mod:`repro.engine.executors` — pluggable ``serial``/``process``
  fan-out with order-preserving ``map``;
* :mod:`repro.engine.cache` — content-addressed module result cache;
* :mod:`repro.engine.scheduler` — the :class:`AnalysisEngine` that probes
  the cache, schedules misses, and merges deterministically;
* :mod:`repro.engine.worker` — the picklable per-module unit of work.
"""

from repro.engine.cache import (
    ANALYSIS_VERSION,
    DEFAULT_CACHE,
    CacheStats,
    ResultCache,
    module_key,
)
from repro.engine.executors import (
    EXECUTOR_KINDS,
    ProcessExecutor,
    SerialExecutor,
    default_workers,
    make_executor,
)
from repro.engine.scheduler import AnalysisEngine, EngineRun, EngineStats
from repro.engine.worker import ModuleJob, ModuleResult, analyze_job, analyze_lowered

__all__ = [
    "ANALYSIS_VERSION",
    "AnalysisEngine",
    "CacheStats",
    "DEFAULT_CACHE",
    "EngineRun",
    "EngineStats",
    "EXECUTOR_KINDS",
    "ModuleJob",
    "ModuleResult",
    "ProcessExecutor",
    "ResultCache",
    "SerialExecutor",
    "analyze_job",
    "analyze_lowered",
    "default_workers",
    "make_executor",
    "module_key",
]
