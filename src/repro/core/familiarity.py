"""Code-familiarity models (paper §6, §9.2).

The **Degree-of-Knowledge (DOK)** model scores how familiar a developer is
with a file from three version-control factors:

    DOK = α₀ + α_FA·FA + α_DL·DL − α_AC·ln(1 + AC)

* FA — first authorship: 1 if the developer created the file;
* DL — deliveries: number of the developer's commits touching the file;
* AC — acceptances: commits to the file authored by *others*.

The published weights (fit from a developer survey) are α₀ = 3.1,
α_FA = 1.2, α_DL = 0.2, α_AC = 0.5; :mod:`repro.core.calibration`
reproduces the fitting procedure.  Ablations (Table 6 "w/o AC/DL/FA")
zero out one factor.

The **EA model** (§9.2 alternative) scores expertise from the *types* of
commits a developer made to the file — new functionality counts more than
a bug fix, which counts more than refactoring — requiring no survey.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.vcs.objects import Author
from repro.vcs.repository import Repository


@dataclass(frozen=True)
class DokWeights:
    """Weights of the DOK linear model."""

    alpha0: float = 3.1
    alpha_fa: float = 1.2
    alpha_dl: float = 0.2
    alpha_ac: float = 0.5

    def without(self, factor: str) -> "DokWeights":
        """Zero one factor's weight: factor ∈ {'FA', 'DL', 'AC'}."""
        key = {"FA": "alpha_fa", "DL": "alpha_dl", "AC": "alpha_ac"}[factor.upper()]
        return replace(self, **{key: 0.0})


class DokModel:
    """The DOK familiarity model over a MiniGit repository."""

    def __init__(self, repo: Repository, weights: DokWeights | None = None):
        self.repo = repo
        self.weights = weights or DokWeights()
        self._cache: dict[tuple[str, str, object], dict] = {}

    def breakdown(
        self, author: Author | str, path: str, until_rev: int | str | None = None
    ) -> dict:
        """The DOK terms behind one score — the provenance/explain view.

        Raw factors (``fa``/``dl``/``ac``), each weighted term, the
        intercept and the final score: exactly the numbers ``score``
        sums, from one shared computation.
        """
        key = (author if isinstance(author, str) else author.name, path, until_rev)
        if key not in self._cache:
            if isinstance(author, str):
                author = self.repo.author(author) or Author(name=author)
            stats = self.repo.file_stats(path, author, until_rev=until_rev)
            weights = self.weights
            fa = 1 if stats.first_authorship else 0
            term_fa = weights.alpha_fa * fa
            term_dl = weights.alpha_dl * stats.deliveries
            term_ac = weights.alpha_ac * math.log1p(stats.acceptances)
            self._cache[key] = {
                "model": "dok",
                "author": author.name,
                "file": path,
                "fa": fa,
                "dl": stats.deliveries,
                "ac": stats.acceptances,
                "alpha0": weights.alpha0,
                "term_fa": term_fa,
                "term_dl": term_dl,
                "term_ac": term_ac,
                "score": weights.alpha0 + term_fa + term_dl - term_ac,
            }
        return dict(self._cache[key])

    def score(self, author: Author | str, path: str, until_rev: int | str | None = None) -> float:
        """Familiarity of ``author`` with ``path`` (higher = more familiar)."""
        return self.breakdown(author, path, until_rev=until_rev)["score"]


# Commit-type weights for the EA model: new functionality implies deeper
# knowledge than fixing, which implies more than refactoring/cleanup.
_EA_NEW = 1.0
_EA_FIX = 0.6
_EA_REFACTOR = 0.3


def classify_commit_message(message: str) -> str:
    """'fix' / 'refactor' / 'new' from the commit message."""
    lowered = message.lower()
    if any(marker in lowered for marker in ("fix", "bug", "cve", "fault", "corrupt")):
        return "fix"
    if any(marker in lowered for marker in ("refactor", "cleanup", "clean up", "style", "rename")):
        return "refactor"
    return "new"


class EaModel:
    """Expertise-Atoms-style model (Mockus & Herbsleb) — weights commits by
    their type; needs no developer survey."""

    def __init__(self, repo: Repository):
        self.repo = repo
        self._cache: dict[tuple[str, str, object], float] = {}

    def score(self, author: Author | str, path: str, until_rev: int | str | None = None) -> float:
        name = author if isinstance(author, str) else author.name
        key = (name, path, until_rev)
        if key not in self._cache:
            total = 0.0
            for commit in self.repo.file_log(path, until_rev=until_rev):
                if commit.author.name != name:
                    continue
                kind = classify_commit_message(commit.message)
                total += {"new": _EA_NEW, "fix": _EA_FIX, "refactor": _EA_REFACTOR}[kind]
            self._cache[key] = total
        return self._cache[key]
