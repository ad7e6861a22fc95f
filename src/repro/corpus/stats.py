"""Corpus statistics: summarise a generated (or loaded) project + history.

Used by the CLI's ``corpus-stats`` subcommand and by EXPERIMENTS.md-style
reporting: how big is the tree, how is authorship distributed, and what
does the construct composition look like."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.project import Project
from repro.corpus.ground_truth import GroundTruthLedger
from repro.vcs.objects import day_to_iso
from repro.vcs.repository import Repository


@dataclass
class CorpusStats:
    name: str
    files: int = 0
    loc: int = 0
    functions: int = 0
    commits: int = 0
    authors: int = 0
    first_commit: str = ""
    last_commit: str = ""
    commits_per_author: dict[str, int] = field(default_factory=dict)
    constructs: dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"corpus: {self.name}",
            f"  files:     {self.files}",
            f"  LoC:       {self.loc}",
            f"  functions: {self.functions}",
            f"  commits:   {self.commits} ({self.first_commit} → {self.last_commit})",
            f"  authors:   {self.authors}",
        ]
        top = sorted(self.commits_per_author.items(), key=lambda kv: -kv[1])[:5]
        if top:
            lines.append("  top committers:")
            for author, count in top:
                lines.append(f"    {author:<24}{count:>5}")
        if self.constructs:
            lines.append("  planted constructs:")
            for category, count in sorted(self.constructs.items()):
                lines.append(f"    {category:<24}{count:>5}")
        return "\n".join(lines)


def collect_stats(
    repo: Repository,
    project: Project | None = None,
    ledger: GroundTruthLedger | None = None,
    name: str | None = None,
) -> CorpusStats:
    """Gather statistics for a repository (+ optional parsed project and
    ground-truth ledger)."""
    stats = CorpusStats(name=name or repo.name)
    stats.commits = len(repo.commits)
    if repo.commits:
        stats.first_commit = day_to_iso(repo.commits[0].day)
        stats.last_commit = day_to_iso(repo.head.day)
    for commit in repo.commits:
        stats.commits_per_author[commit.author.name] = (
            stats.commits_per_author.get(commit.author.name, 0) + 1
        )
    stats.authors = len(stats.commits_per_author)
    if project is None:
        project = Project.from_repository(repo)
    stats.files = len(project.sources)
    stats.loc = project.loc()
    stats.functions = sum(len(project.module(path).functions) for path in project.sources)
    if ledger is not None:
        stats.constructs = ledger.counts()
    return stats
