"""Per-rule precision/recall on the semantic-rules corpus.

The rules-eval corpus (:func:`repro.corpus.generator.generate_rules_corpus`)
plants use-after-free and resource-leak bugs with ground-truth labels —
plus benign look-alikes the packs must stay silent on — alongside a small
classic unused-definitions population.  This experiment analyses it with
every registered pack enabled and scores each pack separately: a planted
bug its pack reports is a true positive, any other report from that pack
is a false positive, and a planted bug with no report is a false
negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.valuecheck import ValueCheck, ValueCheckConfig
from repro.corpus.generator import SyntheticApp, generate_rules_corpus
from repro.rules.registry import registered_packs

#: Ledger categories that count as planted bugs for each pack; classic
#: packs claim every other ``bug_*`` / ``pruned_bug_*`` category.
_SEMANTIC_BUG_CATEGORIES = {
    "use_after_free": ("bug_uaf",),
    "resource_leak": ("bug_leak",),
}


@dataclass(frozen=True)
class RuleScore:
    """One pack's outcome on the rules-eval corpus."""

    rule: str
    planted: int
    reported: int
    tp: int
    fp: int

    @property
    def fn(self) -> int:
        return self.planted - self.tp

    @property
    def precision(self) -> float:
        return self.tp / self.reported if self.reported else 1.0

    @property
    def recall(self) -> float:
        return self.tp / self.planted if self.planted else 1.0


@dataclass
class RulesEvalResult:
    rows: list[RuleScore] = field(default_factory=list)
    seconds: float = 0.0

    def score(self, rule: str) -> RuleScore | None:
        return next((row for row in self.rows if row.rule == rule), None)

    def render(self) -> str:
        lines = [
            "Rule packs: per-rule precision/recall on the rules-eval corpus",
            f"{'Rule':<22}{'Planted':>8}{'Reported':>9}{'TP':>5}{'FP':>5}"
            f"{'FN':>5}{'Precision':>11}{'Recall':>8}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.rule:<22}{row.planted:>8}{row.reported:>9}{row.tp:>5}"
                f"{row.fp:>5}{row.fn:>5}{row.precision:>11.2f}{row.recall:>8.2f}"
            )
        return "\n".join(lines)


def _planted_bugs(app: SyntheticApp, rule: str) -> int:
    semantic = _SEMANTIC_BUG_CATEGORIES.get(rule)
    count = 0
    for entry in app.ledger.bugs():
        if semantic is not None:
            if entry.category in semantic:
                count += 1
        elif entry.category not in (
            cat for cats in _SEMANTIC_BUG_CATEGORIES.values() for cat in cats
        ):
            count += 1
    return count


def run(app: SyntheticApp | None = None, seed: int = 7) -> RulesEvalResult:
    """Score every registered pack on the rules-eval corpus."""
    if app is None:
        app = generate_rules_corpus(seed=seed)
    project = app.project()
    report = ValueCheck(ValueCheckConfig()).analyze(project)
    result = RulesEvalResult(seconds=report.seconds)
    for pack in registered_packs():
        reported = [
            finding for finding in report.reported() if finding.candidate.kind in pack.kinds
        ]
        tp = 0
        for finding in reported:
            entry = app.ledger.match_finding(finding)
            if entry is not None and entry.is_bug:
                tp += 1
        result.rows.append(
            RuleScore(
                rule=pack.name,
                planted=_planted_bugs(app, pack.name),
                reported=len(reported),
                tp=tp,
                fp=len(reported) - tp,
            )
        )
    return result
