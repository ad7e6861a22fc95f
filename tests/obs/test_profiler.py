"""Sampling profiler: folded stacks, the GC pause, lifecycle."""

from __future__ import annotations

import gc
import threading
import time

import pytest

from repro.obs import SamplingProfiler, fold_frame
from repro.obs import profiler as profiler_module


def _spin_in(name: str, stop: threading.Event) -> threading.Thread:
    namespace = {"stop": stop, "time": time}
    exec(  # a recognisable function name to find in the folded stacks
        f"def {name}(stop, time):\n"
        f"    while not stop.is_set():\n"
        f"        time.sleep(0.001)\n",
        namespace,
    )
    thread = threading.Thread(
        target=namespace[name], args=(stop, time), name=name, daemon=True
    )
    thread.start()
    return thread


class TestFoldFrame:
    def test_outermost_first(self):
        import sys

        def inner():
            return fold_frame(sys._getframe())

        def outer():
            return inner()

        folded = outer()
        parts = folded.split(";")
        # This very file, innermost frame last.
        assert parts[-1].endswith(":inner")
        assert parts[-2].endswith(":outer")
        assert all(":" in part for part in parts)


class TestSampling:
    def test_sample_now_captures_other_threads(self):
        stop = threading.Event()
        thread = _spin_in("busy_marker_fn", stop)
        try:
            profiler = SamplingProfiler(interval=0.01)
            time.sleep(0.01)
            for _ in range(5):
                profiler.sample_now()
            folded = profiler.folded()
            assert any("busy_marker_fn" in stack for stack in folded)
            assert profiler.stats()["samples"] >= 5
        finally:
            stop.set()
            thread.join()

    def test_render_folded_format(self):
        stop = threading.Event()
        thread = _spin_in("render_marker_fn", stop)
        try:
            profiler = SamplingProfiler(interval=0.01)
            time.sleep(0.01)
            for _ in range(3):
                profiler.sample_now()
            text = profiler.render_folded()
            lines = text.strip().splitlines()
            assert lines
            for line in lines:
                stack, _, count = line.rpartition(" ")
                assert stack and count.isdigit()
            counts = [int(line.rpartition(" ")[2]) for line in lines]
            assert counts == sorted(counts, reverse=True)
        finally:
            stop.set()
            thread.join()

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0.0)

    def test_collection_paused_while_frames_are_in_hand(self, monkeypatch):
        # A collection inside sys._current_frames() can deadlock CPython
        # 3.11, so every stack walk (fold_frame, called mid-sample) must
        # see GC off; the sampler restores whatever state it found.
        seen = []

        def recording_fold(frame):
            seen.append(gc.isenabled())
            return "stack"

        monkeypatch.setattr(profiler_module, "fold_frame", recording_fold)
        stop = threading.Event()
        thread = _spin_in("gc_marker_fn", stop)
        was_enabled = gc.isenabled()
        try:
            profiler = SamplingProfiler(interval=0.01)
            gc.enable()
            profiler.sample_now()
            assert seen and not any(seen)
            assert gc.isenabled()
            gc.disable()
            profiler.sample_now()
            assert not gc.isenabled()
        finally:
            if was_enabled:
                gc.enable()
            stop.set()
            thread.join()


class TestLifecycle:
    def test_thread_samples_until_stopped(self):
        stop = threading.Event()
        thread = _spin_in("lifecycle_marker_fn", stop)
        try:
            with SamplingProfiler(interval=0.005) as profiler:
                time.sleep(0.08)
            assert not profiler.running
            stats = profiler.stats()
            assert stats["ticks"] >= 2
            assert stats["active_seconds"] > 0
        finally:
            stop.set()
            thread.join()

    def test_start_idempotent(self):
        profiler = SamplingProfiler(interval=0.01)
        try:
            assert profiler.start() is profiler.start()
        finally:
            profiler.stop()
            profiler.stop()  # stop is safe to repeat
