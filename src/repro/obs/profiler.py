"""Always-on sampling profiler: folded stacks from ``sys._current_frames()``.

A single daemon thread wakes every ``interval`` seconds, snapshots every
other thread's Python stack, and folds each one into a
``outer;...;inner`` key with a hit count — the flamegraph input format
(`flamegraph.pl`, speedscope, inferno all eat it directly).  Stdlib
only, no signals (safe on worker threads and inside a daemon), and
cheap enough to leave running: the sampled threads pay nothing, the
sampler pays one stack walk per thread per tick.

Per-phase attribution rides on the span tracer: when a ``phase_resolver``
is given (usually :meth:`Tracer.active_name`), each sample is also
bucketed under whatever span the sampled thread had open — so
``profile.phases()`` answers "where does daemon CPU actually go:
andersen, parse, rank, or idle?" without any per-sample bookkeeping in
the pipeline itself.

Usage::

    profiler = SamplingProfiler(interval=0.005, phase_resolver=tracer.active_name)
    with profiler:
        run_the_workload()
    Path("profile.folded").write_text(profiler.render_folded())
    print(profiler.phases())          # {"pointer.andersen": 812, ...}
"""

from __future__ import annotations

import gc
import sys
import threading
from typing import Callable

from repro.obs.clock import monotonic

#: Frames deeper than this are truncated (folded keys stay bounded even
#: under pathological recursion).
MAX_STACK_DEPTH = 64

#: Phase bucket for samples taken while the thread has no span open.
IDLE_PHASE = "<no-span>"


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

    def __init__(
        self,
        interval: float = 0.005,
        phase_resolver: Callable[[int], str | None] | None = None,
        exclude_idle: bool = True,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.phase_resolver = phase_resolver
        self.exclude_idle = exclude_idle
        self._lock = threading.Lock()
        self._stacks: dict[str, int] = {}
        self._phase_samples: dict[str, int] = {}
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
            resolver = self.phase_resolver
            folded: list[tuple[str | None, str | None]] = []
            for ident, frame in frames.items():
                if ident == own_ident:
                    continue
                phase = None
                if resolver is not None:
                    try:
                        phase = resolver(ident)
                    except Exception:  # noqa: BLE001 — a resolver bug must not kill sampling
                        phase = None
                if resolver is not None and phase is None and self.exclude_idle:
                    # Threads outside any span are overwhelmingly parked in
                    # queue/select waits; folding them buries the signal.
                    # They still show up in phases() under IDLE_PHASE.
                    folded.append((None, None))
                    continue
                folded.append((fold_frame(frame), phase))
            with self._lock:
                self._ticks += 1
                for key, phase in folded:
                    self._samples += 1
                    bucket = phase if phase is not None else IDLE_PHASE
                    self._phase_samples[bucket] = self._phase_samples.get(bucket, 0) + 1
                    if key is not None:
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

    def phases(self) -> dict[str, int]:
        """Span-name -> sample count (the per-phase CPU attribution)."""
        with self._lock:
            return dict(self._phase_samples)

    def phase_seconds(self) -> dict[str, float]:
        """Approximate wall-time per phase: samples x interval."""
        return {
            phase: round(count * self.interval, 6)
            for phase, count in self.phases().items()
        }

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

    def render_phases(self) -> str:
        """Human-readable per-phase attribution table."""
        phases = self.phases()
        total = sum(phases.values())
        if not total:
            return "no samples recorded\n"
        lines = ["phase                     samples   share   ~seconds"]
        for phase, count in sorted(phases.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(
                f"  {phase:<24}{count:>7}  {count / total:>6.1%}  "
                f"{count * self.interval:>9.3f}"
            )
        return "\n".join(lines) + "\n"
