"""Ordered pruning pipeline with per-strategy accounting (Table 4)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import obs
from repro.core.findings import Finding
from repro.core.pruning.base import PruneContext, Pruner
from repro.core.pruning.config_dependency import ConfigDependencyPruner
from repro.core.pruning.cursor import CursorPruner
from repro.core.pruning.history import HistoryPruner
from repro.core.pruning.unused_hints import UnusedHintsPruner
from repro.core.pruning.peer_definition import PeerDefinitionPruner


@dataclass
class PruningPipeline:
    """Applies pruners in order; the first match claims the candidate."""

    pruners: list[Pruner] = field(default_factory=list)

    @obs.traced("core.prune")
    def apply(
        self,
        findings: list[Finding],
        context: PruneContext,
        rules: tuple[str, ...] | None = None,
    ) -> list[Finding]:
        """Return findings with ``pruned_by`` stamped (survivors keep None).

        Each finding is only shown to the pruners its rule pack's
        ``pruner_policy`` allows (the unused-definitions pack allows all,
        preserving the paper's behaviour; semantic packs restrict the
        list).  ``rules`` names the enabled packs, for per-rule kill
        accounting.

        Accounting (when ``context.metrics`` is set) is one tally after
        the loop, derived from the stamped findings: every pruner gets a
        ``prune.killed{pruner=...}`` counter — zero-initialised so stage
        sums stay comparable across runs — plus ``prune.examined`` and
        ``prune.survived`` totals that reconcile with the report's
        candidate counts.  Kills are additionally attributed to the
        finding's rule pack under ``prune.killed{rule=...}``.

        The stamp and the provenance verdicts both come from the *same*
        :class:`~repro.obs.PrunerVerdict` objects each pruner's
        ``decide`` returns, so the counters and the audit trail cannot
        disagree.  Pruners after the first kill are never consulted
        (pipeline order claims the candidate), so the trail ends at the
        claiming verdict.
        """
        # Imported lazily: repro.rules pulls in repro.core, whose package
        # import reaches back into this module.
        from repro.rules.registry import pack_for_kind

        out: list[Finding] = []
        kills_by_rule = dict.fromkeys(rules or (), 0)
        for finding in findings:
            pack = pack_for_kind(finding.candidate.kind)
            for pruner in self.pruners:
                if not pack.allows_pruner(pruner.name):
                    continue
                verdict = pruner.decide(finding.candidate, context)
                if context.provenance is not None:
                    context.provenance.add_verdict(finding.key, verdict)
                if verdict.pruned:
                    finding = replace(finding, pruned_by=verdict.pruner)
                    kills_by_rule[pack.name] = kills_by_rule.get(pack.name, 0) + 1
                    break
            out.append(finding)
        metrics = context.metrics
        if metrics is not None:
            kills = self.stats(out)
            for name, count in kills.items():
                metrics.inc("prune.killed", count, pruner=name)
            for rule, count in kills_by_rule.items():
                metrics.inc("prune.killed", count, rule=rule)
            survived = len(out) - sum(kills.values())
            # Only the kill counters are zero-initialised; a zero total
            # records no counter.
            if out:
                metrics.inc("prune.examined", len(out))
            if survived:
                metrics.inc("prune.survived", survived)
        return out

    def stats(self, findings: list[Finding]) -> dict[str, int]:
        """Prune counts per strategy (over already-stamped findings)."""
        counts = {pruner.name: 0 for pruner in self.pruners}
        for finding in findings:
            if finding.pruned_by is not None:
                counts[finding.pruned_by] = counts.get(finding.pruned_by, 0) + 1
        return counts


def default_pipeline(
    enable: set[str] | None = None,
    include_history: bool = False,
) -> PruningPipeline:
    """The paper's pipeline, in the paper's order.  ``enable`` restricts to
    a subset of strategy names (for ablations); ``include_history`` adds
    the §9.1 future-work pruner after the four published strategies."""
    pruners: list[Pruner] = [
        ConfigDependencyPruner(),
        CursorPruner(),
        UnusedHintsPruner(),
        PeerDefinitionPruner(),
    ]
    if include_history:
        pruners.append(HistoryPruner())
    if enable is not None:
        pruners = [pruner for pruner in pruners if pruner.name in enable]
    return PruningPipeline(pruners=pruners)
