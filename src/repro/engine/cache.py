"""Content-addressed per-module result cache.

A module's analysis output (candidates, index contribution, solver
convergence) is a pure function of three inputs: the file path (which is
baked into every candidate and :class:`FunctionLocation`), the source
text, and the build configuration that selects ``#if`` arms.  Hashing
those three — plus an analysis-version stamp so stale entries die when
detection semantics change — gives a key under which results can be
reused across analyses, projects, processes in a pool, and repeated
evaluation-suite runs.

The cache is process-wide, thread-safe and LRU-bounded.  The counters
here are cumulative, process-lifetime tallies; per-run hit/miss
accounting (plus lookup-latency histograms) lives in the engine run's
:class:`~repro.obs.MetricsRegistry`, so one engine run reports its own
tally even when several analyses share the default cache.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

# Bump whenever detection/pointer/index semantics change in a way that
# alters per-module results: cached entries from older code must miss.
# engine-3: ModuleResult grew the detection-provenance slice — entries
# cached by engine-2 would replay without audit records.
# engine-4: findings carry store fingerprints derived from module source
# context — entries cached by engine-3 would replay with line-keyed
# identities the lifecycle store cannot match across revisions.
# engine-5: detection is rule-pack driven and ModuleResult may carry
# use-after-free / resource-leak candidate kinds — entries cached by
# engine-4 would replay without the semantic rules' output.
# engine-6: increment candidates carry their same-delta store count, so
# cursor pruning reads no IR — entries cached by engine-5 would replay
# candidates whose count reads as zero.
ANALYSIS_VERSION = "engine-6"

DEFAULT_CAPACITY = 4096


def module_key(
    path: str,
    text: str,
    build_config: Iterable[str],
    rules: Iterable[str] | None = None,
) -> str:
    """Content address of one module's analysis inputs.  ``rules`` is the
    *normalized* enabled-pack tuple (callers resolve ``None`` through the
    registry first, so a default run and an explicit-default run share
    entries)."""
    digest = hashlib.sha256()
    digest.update(ANALYSIS_VERSION.encode())
    digest.update(b"\x00")
    digest.update(path.encode())
    digest.update(b"\x00")
    for macro in sorted(build_config):
        digest.update(macro.encode())
        digest.update(b"\x01")
    digest.update(b"\x00")
    for rule in rules if rules is not None else ():
        digest.update(rule.encode())
        digest.update(b"\x02")
    digest.update(b"\x00")
    digest.update(text.encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of cache counters."""

    hits: int = 0
    misses: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Thread-safe LRU of content-addressed module results."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: str):
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            self._misses += 1
            return None

    def put(self, key: str, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits, misses=self._misses, entries=len(self._entries)
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# The shared process-wide cache used unless an engine is given its own.
DEFAULT_CACHE = ResultCache()
