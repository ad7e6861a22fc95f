"""Familiarity ranking (paper §6).

Reported findings are ordered by the introducing author's familiarity with
the file they touched, *ascending*: the less familiar the developer, the
more likely the inconsistency is a real bug, so it surfaces first.
"""

from __future__ import annotations

from dataclasses import replace

from repro import obs
from repro.core.familiarity import DokModel
from repro.core.findings import Finding
from repro.obs import MetricsRegistry, ProvenanceLog


def score_finding(finding: Finding, model: DokModel, until_rev: int | str | None = None) -> Finding:
    """Attach the introducing author's familiarity to a finding."""
    authorship = finding.authorship
    if authorship is None or not authorship.introducing_author:
        return finding
    familiarity = model.score(
        authorship.introducing_author,
        authorship.blamed_file or finding.candidate.file,
        until_rev=until_rev,
    )
    return replace(finding, familiarity=familiarity)


def _ranking_entry(
    finding: Finding, rank: int, model, until_rev: int | str | None
) -> dict:
    """The ranking slice of a provenance record: rank plus the score's
    term-by-term breakdown when the model can expose one (DOK can)."""
    entry: dict = {"rank": rank, "familiarity": finding.familiarity}
    authorship = finding.authorship
    if (
        model is not None
        and hasattr(model, "breakdown")
        and authorship is not None
        and authorship.introducing_author
    ):
        entry["breakdown"] = model.breakdown(
            authorship.introducing_author,
            authorship.blamed_file or finding.candidate.file,
            until_rev=until_rev,
        )
    elif model is not None:
        entry["breakdown"] = {
            "model": type(model).__name__.replace("Model", "").lower(),
            "score": finding.familiarity,
        }
    return entry


@obs.traced("core.rank")
def rank_findings(
    findings: list[Finding],
    model: DokModel | None = None,
    until_rev: int | str | None = None,
    use_familiarity: bool = True,
    metrics: MetricsRegistry | None = None,
    provenance: ProvenanceLog | None = None,
) -> list[Finding]:
    """Rank *reported* findings; unreported findings pass through unranked.

    With ``use_familiarity=False`` (Table 6 "w/o Familiarity") reported
    findings keep detection order, matching the paper's ablation of
    "select the first 20 cross-scope unused definitions detected".
    """
    reported: list[Finding] = []
    others: list[Finding] = []
    for finding in findings:
        (reported if finding.is_reported else others).append(finding)
    if use_familiarity and model is not None:
        reported = [score_finding(finding, model, until_rev) for finding in reported]
        reported.sort(
            key=lambda finding: (
                finding.familiarity if finding.familiarity is not None else float("inf"),
                finding.key,
            )
        )
        if metrics is not None:
            for finding in reported:
                if finding.familiarity is not None:
                    metrics.observe("rank.familiarity", finding.familiarity)
    if metrics is not None:
        metrics.inc("rank.reported", len(reported))
        metrics.inc("rank.unreported", len(others))
    ranked = [finding.with_rank(position + 1) for position, finding in enumerate(reported)]
    if provenance is not None:
        scoring_model = model if use_familiarity else None
        for finding in ranked:
            provenance.set_ranking(
                finding.key, _ranking_entry(finding, finding.rank, scoring_model, until_rev)
            )
    return ranked + others
