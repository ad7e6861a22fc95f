#!/usr/bin/env python3
"""Steadiness evidence: run each workload once per seed and report, per
end-to-end metric, the quartile spread as a share of the median.

    python3 perfbench/steady.py --seeds 1-10 --traced --out perfbench/results/steadiness-1.json
    python3 perfbench/steady.py --workloads warm_replay --seeds 1-5

Every run is a separate ``run.py`` process started from the repository
root with the command and ``run_seconds`` of BENCHMARK.json.  Beside each
run's metrics the report keeps the host drift probe (``host.calib_ms``,
mean of before and after the run) and, per metric, the
correlation of the metric with the probe and the spread the metric would
have had if it were divided by the probe: when that spread is much
smaller, the run-to-run spread is host drift, not the program.  With
``--traced`` it also makes one traced run per workload and records its
per-layer shares and residual.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One benchmark process; its run-log record (every printed metric)."""
    command = [
        *CONFIG["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(CONFIG["run_seconds"]),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    log = (ROOT / ".perfbench_work" / "runs.jsonl").read_text().splitlines()
    record = json.loads(log[-1])
    record["result"] = result
    return record


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def summarize(records: list[dict]) -> dict:
    calib = [
        (r["metrics"]["host.calib_ms.before"] + r["metrics"]["host.calib_ms.after"]) / 2
        for r in records
    ]
    rows = {}
    for metric in CONFIG["end_to_end"]:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in records]
        normalized = [v / c for v, c in zip(values, calib)]
        rows[name] = {
            "median": statistics.median(values),
            "spread": spread(values),
            "bound": metric["bound"],
            "within_third": spread(values) < metric["bound"] / 3,
            "calib_r": statistics.correlation(values, calib) if len(set(values)) > 1 else 0.0,
            "spread_if_divided_by_calib": spread(normalized),
            "values": values,
        }
    return {"calib_ms": calib, "calib_spread": spread(calib), "metrics": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in CONFIG["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write the report here as JSON")
    args = parser.parse_args(argv)

    report = {"run_seconds": CONFIG["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        records = []
        for seed in parse_seeds(args.seeds):
            records.append(run_once(workload, seed, trace=0))
            metrics = records[-1]["result"]["metrics"]
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items())
            print(f"{workload} seed={seed} {shown}", flush=True)
        summary = summarize(records)
        if args.traced:
            traced = run_once(workload, parse_seeds(args.seeds)[0], trace=1)["metrics"]
            wall = traced["traced_wall_ms"]
            summary["traced"] = {
                "residual_share": traced["residual_share"],
                "trace_overhead": traced["trace.overhead"],
                "shares": {
                    name[: -len("_ms")]: round(value / wall, 4)
                    for name, value in traced.items()
                    if name.endswith("_ms") and name != "traced_wall_ms"
                    and not name.startswith("host.") and value > 0
                },
            }
        report["workloads"][workload] = summary
        for name, row in summary["metrics"].items():
            flag = "ok" if row["within_third"] else "WIDE"
            print(
                f"  {name:<12} median {row['median']:<10.4g} spread {row['spread']:.3f} "
                f"(bound {row['bound']}, {flag}) calib r={row['calib_r']:+.2f} "
                f"spread/calib {row['spread_if_divided_by_calib']:.3f}",
                flush=True,
            )
        print(f"  host.calib_ms spread {summary['calib_spread']:.3f}", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
