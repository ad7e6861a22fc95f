"""Sampling profiler: folded stacks from ``sys._current_frames()``.

A single daemon thread wakes every ``interval`` seconds, snapshots every
other thread's Python stack, and folds each one into a
``outer;...;inner`` key with a hit count — the flamegraph input format
(`flamegraph.pl`, speedscope, inferno all eat it directly).  Stdlib
only, no signals: the sampled threads pay nothing, the sampler pays one
stack walk per thread per tick.  ``valuecheck profile`` runs it for
function-level flamegraphs; "which layer did the time go to" is the
span tracer's self times (:func:`repro.obs.trace.self_times`).

Usage::

    profiler = SamplingProfiler(interval=0.005)
    with profiler:
        run_the_workload()
    Path("profile.folded").write_text(profiler.render_folded())
"""

from __future__ import annotations

import gc
import sys
import threading
from repro.obs.clock import monotonic

#: Frames deeper than this are truncated (folded keys stay bounded even
#: under pathological recursion).
MAX_STACK_DEPTH = 64


def fold_frame(frame) -> str:
    """One stack, outermost-first, as a ``;``-joined folded key."""
    parts: list[str] = []
    while frame is not None and len(parts) < MAX_STACK_DEPTH:
        code = frame.f_code
        module = code.co_filename.rsplit("/", 1)[-1]
        parts.append(f"{module}:{code.co_name}")
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """Sampler thread over ``sys._current_frames()`` with folded output."""

    def __init__(self, interval: float = 0.005):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self._lock = threading.Lock()
        self._stacks: dict[str, int] = {}
        self._samples = 0
        self._ticks = 0
        self._started_at: float | None = None
        self._active_seconds = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self.running:
            return self
        self._stop.clear()
        self._started_at = monotonic()
        self._thread = threading.Thread(
            target=self._run, name="obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        if self._started_at is not None:
            self._active_seconds += monotonic() - self._started_at
            self._started_at = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- sampling --------------------------------------------------------

    def _run(self) -> None:
        own_ident = threading.get_ident()
        while not self._stop.wait(self.interval):
            self._sample_once(own_ident)

    def _sample_once(self, own_ident: int) -> None:
        # No automatic GC while other threads' frames are in hand: on
        # CPython 3.11 a collection inside sys._current_frames() can
        # deadlock the process (CPython gh-106883), and one during the
        # f_back walk can crash it.
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            frames = sys._current_frames()
            folded = [
                fold_frame(frame)
                for ident, frame in frames.items()
                if ident != own_ident
            ]
            with self._lock:
                self._ticks += 1
                self._samples += len(folded)
                for key in folded:
                    self._stacks[key] = self._stacks.get(key, 0) + 1
        finally:
            if gc_enabled:
                gc.enable()

    def sample_now(self) -> None:
        """Take one sample synchronously (deterministic tests; no thread)."""
        self._sample_once(threading.get_ident())

    # -- views -----------------------------------------------------------

    def folded(self) -> dict[str, int]:
        """Folded stack -> sample count."""
        with self._lock:
            return dict(self._stacks)

    def render_folded(self) -> str:
        """The flamegraph collapsed-stack format: one ``stack count`` per
        line, most-sampled first (count ties break lexically)."""
        with self._lock:
            rows = sorted(self._stacks.items(), key=lambda kv: (-kv[1], kv[0]))
        return "".join(f"{stack} {count}\n" for stack, count in rows)

    def stats(self) -> dict:
        with self._lock:
            active = self._active_seconds
            if self._started_at is not None:
                active += monotonic() - self._started_at
            return {
                "running": self.running,
                "interval_seconds": self.interval,
                "ticks": self._ticks,
                "samples": self._samples,
                "distinct_stacks": len(self._stacks),
                "active_seconds": round(active, 6),
            }
