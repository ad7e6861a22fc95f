"""Telemetry sinks: JSONL run records, Prometheus text, summary tables.

Three consumers, three formats:

* **JSONL** (`--stats-out run_stats.jsonl`) — one self-contained JSON
  object per pipeline run, for trajectory comparison and the
  ``valuecheck stats`` summary table.  The event journal's file mirror
  appends through the same writer.
* **Prometheus text exposition** — counters as ``_total``, histograms as
  ``_count``/``_sum`` plus quantile samples, for scraping in a service
  deployment.
* **Summary table** — the human-facing ``valuecheck stats`` rendering:
  per-layer self time plus the residual, and per-pruner kill counts,
  per recorded run.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import base_name, parse_key, summarize


def write_jsonl(path: str | Path, record: dict) -> None:
    """Append one record to a JSONL file (created on demand): sorted keys,
    non-JSON values as ``str``, on disk when this returns."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")


def read_jsonl(path: str | Path) -> list[dict]:
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote, and newline must be escaped inside the
    double-quoted value (in that order — escaping the backslash first
    keeps the other two escapes from being re-escaped)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prometheus_name(key: str) -> tuple[str, str]:
    """Split a canonical metric key into (prometheus name, label block)."""
    name, labels = parse_key(key)
    flat = name.replace(".", "_").replace("-", "_")
    if labels:
        inner = ",".join(
            f'{k}="{_escape_label_value(v)}"' for k, v in sorted(labels.items())
        )
        return flat, "{" + inner + "}"
    return flat, ""


def to_prometheus(snapshot: dict) -> str:
    """Render a metrics snapshot in the Prometheus text exposition format."""
    lines: list[str] = []
    seen_types: set[str] = set()

    def header(flat: str, kind: str) -> None:
        if flat not in seen_types:
            seen_types.add(flat)
            lines.append(f"# TYPE {flat} {kind}")

    for key, value in snapshot.get("counters", {}).items():
        flat, labels = _prometheus_name(key)
        header(f"{flat}_total", "counter")
        lines.append(f"{flat}_total{labels} {value}")
    for key, value in snapshot.get("gauges", {}).items():
        flat, labels = _prometheus_name(key)
        header(flat, "gauge")
        lines.append(f"{flat}{labels} {value}")
    for key, values in snapshot.get("histograms", {}).items():
        flat, labels = _prometheus_name(key)
        header(flat, "summary")
        stats = values if isinstance(values, dict) else summarize(values)
        lines.append(f"{flat}_count{labels} {stats.get('count', 0)}")
        lines.append(f"{flat}_sum{labels} {stats.get('sum', 0.0)}")
        for quantile in ("p50", "p90", "p99"):
            if quantile in stats:
                q = {"p50": "0.5", "p90": "0.9", "p99": "0.99"}[quantile]
                base_labels = labels[1:-1] if labels else ""
                merged = ",".join(part for part in (base_labels, f'quantile="{q}"') if part)
                lines.append(f"{flat}{{{merged}}} {stats[quantile]}")
    return "\n".join(lines) + "\n"


def _fmt_seconds(value: float | None) -> str:
    return f"{value:.3f}" if value is not None else "—"


def render_stats_table(records: list[dict]) -> str:
    """The ``valuecheck stats`` table over JSONL run records."""
    if not records:
        return "no runs recorded"
    parts: list[str] = []
    for index, record in enumerate(records):
        counts = record.get("counts", {})
        parts.append(
            f"run {index}: project={record.get('project', '?')} "
            f"executor={record.get('executor', '?')} "
            f"seconds={_fmt_seconds(record.get('seconds'))} "
            f"converged={record.get('converged', True)}"
        )
        parts.append(
            f"  candidates={counts.get('candidates', 0)} "
            f"cross_scope={counts.get('cross_scope', 0)} "
            f"pruned={counts.get('pruned', 0)} "
            f"reported={counts.get('reported', 0)}"
        )
        layers = record.get("layers", {})
        if layers:
            parts.append("  layer                   self-time")
            for name, seconds in sorted(layers.items(), key=lambda item: (-item[1], item[0])):
                parts.append(f"    {name:<22}{seconds:9.3f}s")
            parts.append(f"    {'residual':<22}{record.get('residual', 0.0):9.3f}s")
        # Per-pruner kills come from the provenance aggregates when the
        # record carries them (the verdicts are the source of truth the
        # kill counters are derived from); older records fall back to the
        # counter-based prune_stats.
        provenance = record.get("provenance") or {}
        kills = provenance.get("pruned_by") or record.get("prune_stats", {})
        if kills:
            parts.append("  pruner               killed")
            for pruner, killed in sorted(kills.items()):
                parts.append(f"    {pruner:<20}{killed:>5}")
        # Per-rule-pack attribution (records carrying the rule-labeled
        # counters from the rule-pack engine; older records skip this).
        metrics = record.get("metrics") or {}
        by_rule = rule_candidates(metrics)
        rule_killed = rule_kills(metrics)
        if by_rule or rule_killed:
            parts.append("  rule                 candidates  killed")
            for rule in sorted(set(by_rule) | set(rule_killed)):
                parts.append(
                    f"    {rule:<20}{by_rule.get(rule, 0):>8.0f}"
                    f"{rule_killed.get(rule, 0):>8.0f}"
                )
        if provenance:
            parts.append(
                f"  provenance: {provenance.get('candidates', 0)} candidates, "
                f"{provenance.get('explained', 0)} explained"
            )
        service = record.get("service")
        if service:
            requests = service.get("requests", {})
            if requests:
                parts.append("  service requests")
                for key, count in sorted(requests.items()):
                    parts.append(f"    {key:<48}{count:>7.0f}")
            latency = service.get("latency", {})
            if latency:
                parts.append("  service latency            count      mean       p90")
                for key, summary in sorted(latency.items()):
                    parts.append(
                        f"    {key:<24}{summary.get('count', 0):>7.0f} "
                        f"{_fmt_seconds(summary.get('mean')):>9} "
                        f"{_fmt_seconds(summary.get('p90')):>9}"
                    )
        parts.append("")
    return "\n".join(parts).rstrip() + "\n"


def prune_kills(snapshot: dict) -> dict[str, float]:
    """Per-pruner kill counters from a snapshot: pruner name -> count.

    Kills are double-booked under ``{pruner=...}`` and ``{rule=...}``
    labels; only the pruner-labeled keys belong here (see
    :func:`rule_kills` for the per-rule attribution)."""
    kills: dict[str, float] = {}
    for key, value in snapshot.get("counters", {}).items():
        if base_name(key) == "prune.killed":
            _, labels = parse_key(key)
            if "pruner" in labels:
                kills[labels["pruner"]] = value
    return kills


def rule_kills(snapshot: dict) -> dict[str, float]:
    """Per-rule-pack kill counters from a snapshot: rule name -> count."""
    kills: dict[str, float] = {}
    for key, value in snapshot.get("counters", {}).items():
        if base_name(key) == "prune.killed":
            _, labels = parse_key(key)
            if "rule" in labels:
                kills[labels["rule"]] = value
    return kills


def rule_candidates(snapshot: dict) -> dict[str, float]:
    """Per-rule-pack candidate counters: rule name -> detected count."""
    counts: dict[str, float] = {}
    for key, value in snapshot.get("counters", {}).items():
        if base_name(key) == "rules.candidates":
            _, labels = parse_key(key)
            counts[labels.get("rule", "?")] = value
    return counts
