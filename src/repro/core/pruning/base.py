"""Pruner interface and shared context."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.core.findings import Candidate
from repro.core.project import Project
from repro.obs import MetricsRegistry, ProvenanceLog, PrunerVerdict


@dataclass
class PruneContext:
    """Everything a pruner may consult about a candidate's surroundings."""

    project: Project
    # The revision under analysis (None = HEAD); history-reading pruners
    # blame at it.
    rev: int | str | None = None
    # Per-run metrics registry; pruners record through :meth:`observe`
    # (a no-op when the pipeline runs without telemetry).
    metrics: MetricsRegistry | None = None
    # Per-run provenance log; the pipeline records one verdict per
    # pruner consulted (None when the run keeps no audit trail).
    provenance: ProvenanceLog | None = None

    def observe(self, name: str, value: float, **labels) -> None:
        if self.metrics is not None:
            self.metrics.observe(name, value, **labels)

    def raw_lines(self, candidate: Candidate) -> list[str]:
        text = self.project.sources.get(candidate.file)
        if text is None:
            return []
        return text.split("\n")

    def raw_line(self, candidate: Candidate, line: int) -> str:
        lines = self.raw_lines(candidate)
        if 1 <= line <= len(lines):
            return lines[line - 1]
        return ""


class Pruner(Protocol):
    """A pruning strategy; ``name`` keys the Table 4 breakdown.

    ``decide`` is the one decision entry point: it returns the verdict
    *and* the concrete evidence it rests on, and both the kill counters
    and the provenance audit trail are derived from that single return
    value (so the two can never disagree).  ``should_prune`` survives as
    the boolean convenience view over ``decide``.
    """

    name: str

    def decide(self, candidate: Candidate, context: PruneContext) -> PrunerVerdict:
        """The verdict for this candidate, with its evidence."""
        ...

    def should_prune(self, candidate: Candidate, context: PruneContext) -> bool:
        """True if this candidate is an intentional unused definition."""
        ...


class BasePruner:
    """Shared ``should_prune`` → ``decide`` delegation."""

    name = "base"

    def decide(self, candidate: Candidate, context: PruneContext) -> PrunerVerdict:
        raise NotImplementedError

    def should_prune(self, candidate: Candidate, context: PruneContext) -> bool:
        return self.decide(candidate, context).pruned
