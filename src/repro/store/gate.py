"""The CI gate: exit non-zero only on *new*, unsuppressed findings.

``valuecheck gate`` (and the service ``gate`` request) turn a lifecycle
diff into a CI verdict.  The contract:

* **persistent** and **fixed** findings never fail the gate — they are
  the baseline, not the regression;
* **new** and **reopened** findings fail it, *unless* the baseline file
  (:mod:`repro.store.baseline`) carries a reviewed-and-accepted entry
  for their fingerprint;
* the exit code is 0 (clean) or 1 (blocking findings), so the command
  drops into any CI pipeline as-is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.store.baseline import BaselineEntry, BaselineFile
from repro.store.store import Lifecycle, LifecycleDiff, LifecycleRow, sorted_rows

#: States that can fail the gate (before suppression).
BLOCKING_STATES = (Lifecycle.NEW, Lifecycle.REOPENED)


@dataclass
class GateResult:
    """The gate verdict over one lifecycle diff."""

    diff: LifecycleDiff
    blocking: list[LifecycleRow] = field(default_factory=list)
    suppressed: list[tuple[LifecycleRow, BaselineEntry]] = field(default_factory=list)
    # New/reopened rows whose rule pack's gate policy is "warn": surfaced
    # in the verdict but never failing the gate (repro.rules).
    warned: list[LifecycleRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.blocking

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def counts(self) -> dict[str, int]:
        counts = self.diff.counts()
        counts["suppressed"] = len(self.suppressed)
        counts["blocking"] = len(self.blocking)
        counts["warned"] = len(self.warned)
        return counts

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "exit_code": self.exit_code,
            "rev": self.diff.rev,
            "baseline_rev": self.diff.baseline_rev,
            "counts": self.counts(),
            "analysis_version_changed": self.diff.analysis_version_changed,
            "blocking": [row.as_dict() for row in sorted_rows(self.blocking)],
            "warned": [row.as_dict() for row in sorted_rows(self.warned)],
            "suppressed": [
                dict(row.as_dict(), justification=entry.justification, author=entry.author)
                for row, entry in self.suppressed
            ],
            "fixed": [row.as_dict() for row in sorted_rows(self.diff.fixed())],
        }

    def summary(self) -> str:
        counts = self.diff.counts()
        lines = [
            f"gate: {'PASS' if self.ok else 'FAIL'} "
            f"(rev {self.diff.rev}, baseline "
            f"{self.diff.baseline_rev or '<none>'})",
            f"  new:        {counts['new']}",
            f"  reopened:   {counts['reopened']}",
            f"  persistent: {counts['persistent']}",
            f"  fixed:      {counts['fixed']}",
            f"  suppressed: {len(self.suppressed)}",
        ]
        if self.diff.analysis_version_changed:
            lines.append(
                "  note: baseline was recorded under a different "
                "ANALYSIS_VERSION; drift may come from the analyzer"
            )
        for row in sorted_rows(self.blocking):
            lines.append(
                f"  BLOCKING {row.state.value}: {row.file}:{row.line} "
                f"[{row.kind}] {row.function}/{row.var} "
                f"fingerprint={row.fingerprint}"
            )
        for row in sorted_rows(self.warned):
            lines.append(
                f"  warned {row.state.value}: {row.file}:{row.line} "
                f"[{row.kind}] {row.function}/{row.var} "
                f"(rule gate policy: warn)"
            )
        for row, entry in self.suppressed:
            lines.append(
                f"  suppressed {row.state.value}: {row.file}:{row.line} "
                f"{row.function}/{row.var} — {entry.justification} "
                f"(accepted by {entry.author or 'unknown'})"
            )
        return "\n".join(lines)


@obs.traced("store.gate")
def evaluate_gate(
    diff: LifecycleDiff, baseline: BaselineFile | None = None
) -> GateResult:
    """Apply the gate contract to a lifecycle diff.

    The blocking decision is per rule pack: rows whose pack's
    ``gate_policy`` is ``"warn"`` are reported in the verdict but never
    fail the gate (suppression still takes precedence — a reviewed
    baseline entry records the acceptance either way)."""
    # Imported lazily: repro.rules pulls in repro.core, and the store
    # package is imported from core-adjacent entry points.
    from repro.rules.registry import gate_policy_for

    result = GateResult(diff=diff)
    metrics = obs.metrics()
    for row in diff.rows:
        if row.state not in BLOCKING_STATES:
            continue
        entry = None
        if baseline is not None and row.finding is not None:
            fingerprint = diff.fingerprints[row.finding.key]
            entry = baseline.covers(fingerprint.primary, fingerprint.location)
        if entry is not None:
            result.suppressed.append((row, entry))
        elif gate_policy_for(row.kind) == "warn":
            result.warned.append(row)
        else:
            result.blocking.append(row)
    if metrics is not None:
        metrics.inc("store.gate.evaluations")
        metrics.inc("store.gate.blocking", len(result.blocking))
        metrics.inc("store.gate.suppressed", len(result.suppressed))
        metrics.inc("store.gate.warned", len(result.warned))
    return result
