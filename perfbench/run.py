#!/usr/bin/env python3
"""ValueCheck benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload cold_analyze --seed 1 --seconds 25 --trace 0

Workloads (see README.md): ``cold_analyze``, ``warm_replay``,
``routed_churn``.  ``--trace 0`` measures the end-to-end metrics of
BENCHMARK.json untraced; ``--trace 1`` measures its per-layer metrics
from spans the benchmark records around each layer's entry point.  Every
metric is printed by name with its unit; the last line of standard
output is the JSON result.  A run whose findings disagree with their
reference, or whose exact-repeat counts differ from an earlier run of the
same seed in this checkout, exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import stats  # noqa: E402

#: Scratch space inside the checkout: generated repositories, worker span
#: dumps, the exact-repeat record and the run log.
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("cold_analyze", "warm_replay", "routed_churn")

#: What each per-layer metric should move (end-to-end metric @ workload).
MOVES = {
    "frontend.preprocess_ms": "p50_ms@cold_analyze; ops_per_s@routed_churn (re-opens)",
    "frontend.lex_ms": "p50_ms@cold_analyze; ops_per_s@routed_churn (re-opens)",
    "frontend.parse_ms": "p50_ms@cold_analyze; ops_per_s@routed_churn (re-opens)",
    "frontend.modules": "ops_per_s@routed_churn; p50_ms@warm_replay",
    "ir.lower_ms": "p50_ms@cold_analyze",
    "pointer.andersen_ms": "p50_ms@cold_analyze",
    "pointer.vfg_ms": "p50_ms@cold_analyze",
    "rules.detect_ms": "p50_ms@cold_analyze",
    "engine.contribution_ms": "p50_ms@cold_analyze",
    "engine.run_ms": "p50_ms@warm_replay; ops_per_s@routed_churn",
    "engine.cache_hit_ratio": "p50_ms@warm_replay; ops_per_s@routed_churn",
    "vcs.blame_ms": "p50_ms@cold_analyze; p50_ms@warm_replay",
    "core.index_ms": "p50_ms@cold_analyze",
    "core.resolve_ms": "p50_ms@cold_analyze; ops_per_s@warm_replay (explain)",
    "core.prune_ms": "p50_ms@cold_analyze; ops_per_s@warm_replay (explain)",
    "core.rank_ms": "p50_ms@cold_analyze; ops_per_s@warm_replay (explain)",
    "core.pipeline_ms": "p50_ms@cold_analyze",
    "core.incremental_ms": "p50_ms@warm_replay",
    "service.session_ms": "p50_ms@warm_replay",
    "store.fingerprint_ms": "gate_p50_ms@cold_analyze; gate_p50_ms@warm_replay",
    "store.diff_ms": "gate_p50_ms@warm_replay; gate_p50_ms@cold_analyze",
    "store.gate_ms": "gate_p50_ms@warm_replay; gate_p50_ms@cold_analyze",
    "service.overhead_ms": "p50_ms@warm_replay",
    "router.transport_ms": "p50_ms@routed_churn",
    "service.reopens": "ops_per_s@routed_churn",
    "core.candidates": "none; repeats exactly",
    "core.reported": "none; repeats exactly",
    "residual_ms": "none; at most 5% of the traced wall time",
    "trace.overhead": "none",
    "host.calib_ms": "none; never gated",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args, recorder):
    import workloads

    if args.workload == "cold_analyze":
        return workloads.run_cold_analyze(args.seed, args.seconds, recorder)
    if args.workload == "warm_replay":
        return workloads.run_warm_replay(args.seed, args.seconds, WORK, recorder)
    return workloads.run_routed_churn(args.seed, args.seconds, WORK, recorder)


def end_to_end(result) -> tuple[dict, dict]:
    """(gated metrics, printed-only metrics), name -> (value, unit, note)."""
    lat = result.latencies
    ms = lambda v: None if v is None else v * 1000  # noqa: E731
    completed = result.attempted - result.failed
    headline, gates = lat.get(result.headline, []), lat.get("gate", [])
    gated = {
        "setup_s": (statistics.median(result.setup_seconds), "s", f"median of {len(result.setup_seconds)}"),
        "p50_ms": (ms(stats.quantile(headline, 0.5)), "ms", f"{result.headline}, n={len(headline)}"),
        "gate_p50_ms": (ms(stats.quantile(gates, 0.5)), "ms", f"gate, n={len(gates)}"),
        "ops_per_s": (completed / result.wall_seconds, "1/s", f"{completed} ops"),
        "peak_rss_mb": (result.peak_rss_mb, "MB", "analysis process"),
    }
    printed = {}
    analyze = lat.get("analyze", lat.get("verdict"))
    if analyze is not None:
        printed["analyze_p50_ms"] = (ms(stats.quantile(analyze, 0.5)), "ms", f"n={len(analyze)}")
    if "analyze_diff" in lat:
        diffs = lat["analyze_diff"]
        printed["diff_p50_ms"] = (ms(stats.quantile(diffs, 0.5)), "ms", f"n={len(diffs)}")
        printed["diff_p90_ms"] = (ms(stats.quantile(diffs, 0.9)), "ms", f"n={len(diffs)}")
    if "explain" in lat:
        printed["explain_p50_ms"] = (ms(stats.quantile(lat["explain"], 0.5)), "ms", f"n={len(lat['explain'])}")
    every = result.operations(traced=False)
    printed["p99_ms"] = (ms(stats.quantile(every, 0.99)), "ms", f"all types, n={len(every)}")
    printed["error_rate"] = (stats.error_rate(every), "ratio", f"{result.failed}/{result.attempted}")
    return gated, printed


def per_layer(result, calib_ms: float) -> tuple[dict, dict]:
    rows, wall, residual = stats.layer_rows(result)
    ops = max(result.traced_ops, 1)
    counts = result.span_counts
    hits, misses = counts.get("engine.hits", 0), counts.get("engine.misses", 0)
    decisions = max(len(result.decisions), 1)
    traced = stats.quantile(result.traced_latencies.get(result.headline, []), 0.5)
    untraced = stats.quantile(result.latencies.get(result.headline, []), 0.5)
    metrics = {name: (value, "ms", "per op") for name, value in rows.items()}
    metrics.update(
        {
            "frontend.modules": (counts.get("frontend.modules", 0) / ops, "count", "parsed per op"),
            "engine.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio", f"{hits}/{hits + misses}"),
            "service.reopens": (result.reopens / max(result.attempted, 1), "count", f"per op, {result.reopens} in the run"),
            "core.candidates": (sum(c for c, _ in result.decisions) / decisions, "count", f"per {result.headline}"),
            "core.reported": (sum(r for _, r in result.decisions) / decisions, "count", f"per {result.headline}"),
            "trace.overhead": (
                traced / untraced - 1 if traced and untraced else None,
                "ratio",
                f"{result.headline} p50 traced/untraced",
            ),
            "host.calib_ms": (calib_ms, "ms", "before the run"),
        }
    )
    share = residual / wall if wall else 0.0
    extra = {
        "traced_wall_ms": (wall * 1000 / ops, "ms", f"per op, {result.traced_ops} traced ops"),
        "residual_share": (share, "ratio", "must stay <= 0.05"),
    }
    if share > 0.05:
        print(f"perfbench: warning: residual is {share:.1%} of the traced wall time", file=sys.stderr)
    return metrics, extra


def check_repeats(key: str, values: list) -> None:
    """Exact repeats: the i-th operation of a seed must do the same thing in
    every run.  The longest sequence seen in this checkout is recorded; a
    run must agree with it on their common prefix."""
    import workloads

    path = WORK / "repeats.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    values = json.loads(json.dumps(values, sort_keys=True))
    known = record.get(key, [])
    common = min(len(known), len(values))
    for index in range(common):
        if known[index] != values[index]:
            raise workloads.CheckFailed(
                f"{key}: operation {index} gave {values[index]}, an earlier run {known[index]}"
            )
    if len(values) > len(known):
        record[key] = values
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, sort_keys=True))
        os.replace(tmp, path)


def main(argv=None) -> int:
    args = parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no ValueCheck sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import repro.service  # noqa: F401  (every layer module, before patching)
    import workloads

    WORK.mkdir(exist_ok=True)
    calib_before = stats.host_calib_ms()
    recorder = spans.Recorder() if args.trace else None
    if recorder is not None:
        recorder.install()
    try:
        result = run_workload(args, recorder)
    except workloads.CheckFailed as error:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
        return 1
    finally:
        if recorder is not None:
            recorder.uninstall()
    if recorder is not None:
        result.spans.extend(recorder.spans)
        for name, value in recorder.counts.items():
            result.span_counts[name] = result.span_counts.get(name, 0) + value
    calib_after = stats.host_calib_ms()

    base = f"{args.workload}/seed={args.seed}"
    try:
        for label, value in result.fingerprints.items():
            check_repeats(f"{base}/fingerprints/{label}", [value])
        check_repeats(f"{base}/outcomes", result.outcomes)
        if recorder is not None:
            check_repeats(f"{base}/modules_per_traced_op", spans.per_root_counts(result.spans, "frontend.lex"))
    except workloads.CheckFailed as error:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, extra = per_layer(result, calib_before)
        declared = config["per_layer"]
    else:
        metrics, extra = end_to_end(result)
        declared = config["end_to_end"]
    extra["host.calib_ms.before"] = (calib_before, "ms", "")
    extra["host.calib_ms.after"] = (calib_after, "ms", "")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (value, unit, note) in {**metrics, **extra}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        tail = f"  moves {MOVES[name]}" if args.trace and name in MOVES else ""
        print(f"{name:<26} {shown:>12} {unit:<6} {note}{tail}")

    out = {}
    for row in declared:
        value = metrics.get(row["name"], (None,))[0]
        if value is None:
            print(f"perfbench: metric {row['name']} has no value", file=sys.stderr)
            return 1
        out[row["name"]] = {"value": value, "unit": row["unit"]}
    with open(WORK / "runs.jsonl", "a") as log:
        log.write(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "metrics": {k: v[0] for k, v in {**metrics, **extra}.items()},
                    "operations": {kind: result.count(kind) for kind in {*result.latencies, *result.traced_latencies}},
                }
            )
            + "\n"
        )
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": out,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
