"""Self-tests for the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402
from spans import OP, Recorder, Span, per_root_counts, root_seconds, self_times  # noqa: E402
from workloads import RunResult  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.quantile([float(i) for i in range(99)], 0.9) is None
    assert stats.quantile([float(i) for i in range(100)], 0.9) == 89.0
    assert stats.quantile([1.0] * 999, 0.99) is None
    assert stats.quantile([1.0] * 1000, 0.99) == 1.0


def test_median_of_few_samples_is_always_reported():
    assert stats.quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert stats.quantile([], 0.5) is None


def test_failed_operations_miss_every_latency_limit():
    # A failure sorts past every success: it pushes percentiles up and,
    # once a quantile lands on it, the quantile does not exist.
    ok = [0.010] * 60
    assert stats.quantile(ok + [None] * 30, 0.5) == 0.010
    assert stats.quantile(ok + [None] * 60, 0.5) is None
    assert stats.quantile([0.010] * 80 + [None] * 20, 0.9) is None
    assert stats.error_rate(ok + [None] * 20) == 0.25


def test_failed_operations_count_as_attempted_and_failed():
    result = RunResult(headline="verdict", substeps=frozenset({"gate"}))
    result.record("verdict", 1.0, traced=False)
    result.record("gate", 0.1, traced=False)
    result.record("verdict", None, traced=False)  # refused or timed out
    result.record("verdict", 1.1, traced=True)
    assert result.attempted == 3  # a gate step is part of its verdict
    assert result.failed == 1
    assert result.traced_ops == 1
    assert stats.error_rate(result.operations(traced=False)) == 0.5


def test_self_time_is_span_minus_union_of_children():
    spans = [
        Span(OP, 0.0, 10.0),
        Span("engine.run", 1.0, 6.0),
        # Two children overlapping each other (two threads): their union,
        # 2..5, is covered once.
        Span("pointer.vfg", 2.0, 4.0),
        Span("rules.detect", 3.0, 5.0),
        Span("core.rank", 7.0, 9.0),
    ]
    totals = self_times(spans)
    assert totals["engine.run"] == 5.0 - 3.0
    assert totals["pointer.vfg"] == 2.0 and totals["rules.detect"] == 2.0
    assert totals[OP] == 10.0 - 5.0 - 2.0  # the residual row


def test_self_times_and_residual_add_up_to_the_traced_wall_time():
    spans = [
        Span(OP, 0.0, 4.0),
        Span("service.overhead", 0.5, 3.5),
        Span("engine.run", 1.0, 2.0),
        Span("frontend.lex", 1.2, 1.5),
        Span(OP, 5.0, 6.0),
        Span("core.prune", 5.25, 5.75),
    ]
    totals = self_times(spans)
    assert math.isclose(sum(totals.values()), root_seconds(spans))
    assert math.isclose(totals[OP], 1.0 + 0.5)


def test_recorder_patches_every_binding_and_restores_them():
    import repro.frontend.lexer as lexer
    import repro.frontend.parser as parser

    original = lexer.tokenize
    recorder = Recorder()
    recorder.install({"frontend.lex": ("repro.frontend.lexer:tokenize",)})
    try:
        assert parser.tokenize is lexer.tokenize is not original
        parser.parse_source("int f(void) { return 0; }\n")
        assert recorder.spans == []  # off until enabled
        recorder.enabled = True
        parser.parse_source("int f(void) { return 0; }\n")
        assert [span.name for span in recorder.spans] == ["frontend.lex"]
        assert recorder.counts["frontend.modules"] == 1
    finally:
        recorder.uninstall()
    assert parser.tokenize is lexer.tokenize is original


def test_per_root_counts_assigns_inner_spans_to_their_operation():
    spans = [
        Span(OP, 0.0, 1.0),
        Span("frontend.lex", 0.1, 0.2),
        Span("frontend.lex", 0.3, 0.4),
        Span(OP, 2.0, 3.0),
        Span(OP, 4.0, 5.0),
        Span("frontend.lex", 4.5, 4.6),
    ]
    assert per_root_counts(spans, "frontend.lex") == [2, 0, 1]


def test_exact_repeats_compare_the_common_prefix(tmp_path, monkeypatch):
    import run
    from workloads import CheckFailed

    monkeypatch.setattr(run, "WORK", tmp_path)
    run.check_repeats("w/seed=1/outcomes", [[281, 0], [0, 281]])
    run.check_repeats("w/seed=1/outcomes", [[281, 0]])  # a shorter run agrees
    run.check_repeats("w/seed=1/outcomes", [[281, 0], [0, 281], [3, 1]])
    with pytest.raises(CheckFailed):
        run.check_repeats("w/seed=1/outcomes", [[281, 0], [0, 281], [3, 2]])
    run.check_repeats("w/seed=2/outcomes", [[1, 1]])  # another seed, its own record
