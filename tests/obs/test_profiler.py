"""Sampling profiler: folded stacks, phase attribution, lifecycle."""

from __future__ import annotations

import gc
import threading
import time

import pytest

from repro.obs import IDLE_PHASE, SamplingProfiler, Tracer, fold_frame


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

    def test_collection_paused_while_frames_are_in_hand(self):
        # A collection inside sys._current_frames() can deadlock CPython
        # 3.11, so the resolver (called mid-walk) must see GC off; the
        # sampler restores whatever state it found.
        seen = []

        def resolver(ident):
            seen.append(gc.isenabled())
            return "phase"

        stop = threading.Event()
        thread = _spin_in("gc_marker_fn", stop)
        was_enabled = gc.isenabled()
        try:
            profiler = SamplingProfiler(interval=0.01, phase_resolver=resolver)
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


class TestPhaseAttribution:
    def test_samples_attributed_to_open_span(self):
        tracer = Tracer()
        ready = threading.Event()
        release = threading.Event()

        def worker():
            with tracer.span("andersen"):
                ready.set()
                release.wait(timeout=5.0)

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        assert ready.wait(timeout=5.0)
        profiler = SamplingProfiler(interval=0.01, phase_resolver=tracer.active_name)
        try:
            for _ in range(4):
                profiler.sample_now()
        finally:
            release.set()
            thread.join()
        phases = profiler.phases()
        assert phases.get("andersen", 0) >= 4
        # In-span samples are folded; the stack mentions the worker fn.
        assert any("worker" in stack for stack in profiler.folded())
        assert profiler.phase_seconds()["andersen"] == pytest.approx(
            phases["andersen"] * 0.01
        )

    def test_idle_threads_counted_but_not_folded(self):
        tracer = Tracer()  # nothing open anywhere
        stop = threading.Event()
        thread = _spin_in("idle_marker_fn", stop)
        try:
            time.sleep(0.01)
            profiler = SamplingProfiler(interval=0.01, phase_resolver=tracer.active_name)
            profiler.sample_now()
            assert profiler.phases().get(IDLE_PHASE, 0) >= 1
            assert not any("idle_marker_fn" in s for s in profiler.folded())
        finally:
            stop.set()
            thread.join()

    def test_no_resolver_folds_everything(self):
        stop = threading.Event()
        thread = _spin_in("noresolver_marker_fn", stop)
        try:
            time.sleep(0.01)
            profiler = SamplingProfiler(interval=0.01)
            profiler.sample_now()
            assert any("noresolver_marker_fn" in s for s in profiler.folded())
            assert profiler.phases().get(IDLE_PHASE, 0) >= 1
        finally:
            stop.set()
            thread.join()

    def test_resolver_exceptions_do_not_kill_sampling(self):
        def broken(ident):
            raise RuntimeError("resolver bug")

        profiler = SamplingProfiler(interval=0.01, phase_resolver=broken)
        stop = threading.Event()
        thread = _spin_in("broken_resolver_fn", stop)
        try:
            time.sleep(0.01)
            profiler.sample_now()
            assert profiler.stats()["samples"] >= 1
        finally:
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

    def test_render_phases_empty(self):
        assert "no samples" in SamplingProfiler().render_phases()
