"""Analysis reports: the ranked unused-definition list plus accounting.

Mirrors the artifact's ``result/APP_NAME/detected.csv`` output and the
counters the evaluation tables aggregate (original candidates, per-pruner
prune counts, reported findings)."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.findings import Finding
from repro.obs import METRICS_SCHEMA_VERSION, summarize_snapshot
from repro.obs.provenance import render_records

if TYPE_CHECKING:
    from repro.engine.scheduler import EngineStats
    from repro.obs import ProvenanceLog, Tracer


@dataclass
class Report:
    """Everything one ValueCheck run produced."""

    project: str
    findings: list[Finding] = field(default_factory=list)
    prune_stats: dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    # How the engine produced the per-module results: executor, worker
    # count, and cache hit/miss counters (None for hand-built reports).
    # Legacy view — the full accounting lives in ``metrics``.
    engine_stats: "EngineStats | None" = None
    # Per-run metrics snapshot (repro.obs schema) and the span tracer the
    # run recorded into (None for hand-built reports).
    metrics: dict | None = None
    trace: "Tracer | None" = None
    # False when the Andersen solver failed to reach a fixpoint on at
    # least one module: points-to facts (and thus findings) may then be
    # under-approximated.
    converged: bool = True
    # Per-candidate decision audit: detection site, cross-scope evidence,
    # one verdict per consulted pruner, DOK breakdown and rank.  Full
    # analyses and warm ``analyze_diff`` splices both carry one; only
    # hand-built reports have None (``explain`` then has nothing to say).
    provenance: "ProvenanceLog | None" = None

    # -- views ----------------------------------------------------------

    def reported(self) -> list[Finding]:
        """Cross-scope, unpruned findings in rank order."""
        out = [finding for finding in self.findings if finding.is_reported]
        out.sort(key=lambda finding: (finding.rank if finding.rank is not None else 1 << 30))
        return out

    def top(self, count: int) -> list[Finding]:
        return self.reported()[:count]

    def pruned(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.pruned_by is not None]

    def cross_scope(self) -> list[Finding]:
        """All cross-scope candidates, pruned or not — Table 4 '#Original'."""
        return [
            finding
            for finding in self.findings
            if finding.authorship is not None and finding.authorship.cross_scope
        ]

    def non_cross_scope(self) -> list[Finding]:
        return [
            finding
            for finding in self.findings
            if finding.authorship is None or not finding.authorship.cross_scope
        ]

    # -- provenance / explain --------------------------------------------

    def explain(self, fragment: str | None = None) -> str:
        """Readable decision trees: every candidate's provenance, or only
        the records whose key contains ``fragment`` (a finding id, file
        name, or ``file:line`` prefix)."""
        if self.provenance is None:
            return "no provenance recorded for this report\n"
        records = (
            self.provenance.records()
            if fragment is None
            else self.provenance.find(fragment)
        )
        if not records:
            if fragment is not None:
                return f"no provenance record matches {fragment!r}\n"
            return "no candidates detected\n"
        return render_records(records) + "\n"

    def explain_jsonl(self) -> str:
        """Machine-readable provenance: one JSON record per line, sorted
        by candidate key — byte-identical across executors."""
        if self.provenance is None:
            return ""
        return self.provenance.to_jsonl()

    # -- accounting ----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        return {
            "candidates": len(self.findings),
            "cross_scope": len(self.cross_scope()),
            "pruned": len(self.pruned()),
            "reported": len(self.reported()),
        }

    def layer_seconds(self) -> dict[str, float]:
        """Self time per layer span of the run's trace, largest first."""
        if self.trace is None:
            return {}
        return dict(sorted(self.trace.self_times().items(), key=lambda item: -item[1]))

    def stats_record(self, seconds: float) -> dict:
        """One self-contained JSONL record for ``--stats-out`` files
        (consumed by ``valuecheck stats`` and trajectory comparisons).

        ``seconds`` is the wall time the caller measured around the
        traced work; ``residual`` is the part of it no span accounts
        for, so the layers plus the residual add up to it exactly."""
        layers = self.layer_seconds()
        record = {
            "schema": METRICS_SCHEMA_VERSION,
            "project": self.project,
            "seconds": seconds,
            "converged": self.converged,
            "counts": self.counts(),
            "prune_stats": dict(self.prune_stats),
            "layers": layers,
            "residual": seconds - sum(layers.values()),
        }
        if self.engine_stats is not None:
            record["executor"] = self.engine_stats.executor
            record["engine"] = self.engine_stats.as_dict()
        if self.metrics is not None:
            record["metrics"] = summarize_snapshot(self.metrics)
        if self.provenance is not None:
            record["provenance"] = self.provenance.aggregates()
        return record

    # -- rendering -------------------------------------------------------------

    _COLUMNS = (
        "rank",
        "file",
        "line",
        "function",
        "variable",
        "kind",
        "callee",
        "cross_scope",
        "introducing_author",
        "pruned_by",
        "familiarity",
    )

    def to_csv(self, path: str | Path | None = None, include_pruned: bool = False) -> str:
        rows = self.reported() if not include_pruned else self.findings
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=self._COLUMNS)
        writer.writeheader()
        for finding in rows:
            writer.writerow(finding.to_row())
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text

    def to_sarif(self, path: str | Path | None = None, include_pruned: bool = False) -> dict:
        """SARIF 2.1.0 log of the reported findings (see repro.core.sarif);
        written to ``path`` when given, for CI viewers and code scanning."""
        from repro.core.sarif import report_to_sarif, write_sarif

        log = report_to_sarif(self, include_pruned=include_pruned)
        if path is not None:
            write_sarif(log, path)
        return log

    def to_markdown(self, top: int = 25) -> str:
        """Render a human-readable Markdown report (for PRs/dashboards)."""
        counts = self.counts()
        lines = [
            f"# ValueCheck report — {self.project}",
            "",
            f"**{counts['reported']}** cross-scope unused definitions reported "
            f"({counts['candidates']} candidates, {counts['pruned']} pruned).",
            "",
        ]
        if self.prune_stats:
            lines.append("| pruning strategy | pruned |")
            lines.append("|---|---|")
            for name, count in sorted(self.prune_stats.items()):
                lines.append(f"| {name} | {count} |")
            lines.append("")
        reported = self.reported()
        if reported:
            lines.append("| # | location | kind | variable | introduced by | familiarity |")
            lines.append("|---|---|---|---|---|---|")
            for finding in reported[:top]:
                candidate = finding.candidate
                author = (
                    finding.authorship.introducing_author if finding.authorship else ""
                )
                familiarity = (
                    f"{finding.familiarity:.2f}" if finding.familiarity is not None else "—"
                )
                lines.append(
                    f"| {finding.rank} | `{candidate.file}:{candidate.line}` "
                    f"| {candidate.kind.value} | `{candidate.function}/{candidate.var}` "
                    f"| {author} | {familiarity} |"
                )
            if len(reported) > top:
                lines.append("")
                lines.append(f"*…and {len(reported) - top} more.*")
        else:
            lines.append("*No findings — nothing crossed developer scopes unpruned.*")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        counts = self.counts()
        lines = [
            f"project:       {self.project}",
            f"candidates:    {counts['candidates']}",
            f"cross-scope:   {counts['cross_scope']}",
            f"pruned:        {counts['pruned']}",
            f"reported:      {counts['reported']}",
        ]
        for name, count in sorted(self.prune_stats.items()):
            lines.append(f"  pruned by {name}: {count}")
        if self.seconds:
            lines.append(f"analysis time: {self.seconds:.2f}s")
        if self.engine_stats is not None:
            stats = self.engine_stats
            lines.append(
                f"engine:        {stats.executor} x{stats.workers} "
                f"({stats.cache_hits} cached, {stats.analyzed} analyzed)"
            )
            if stats.non_converged:
                lines.append(
                    f"  WARNING: solver did not converge on {len(stats.non_converged)} module(s)"
                )
        layers = self.layer_seconds()
        if layers:
            lines.append("layer self-time:")
            for name, seconds in layers.items():
                lines.append(f"  {name:<22}{seconds:9.3f}s")
        return "\n".join(lines)
