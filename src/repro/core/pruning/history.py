"""History-based pruning — the paper's §9.1 future-work extension.

"Some unused definitions are just legacy code or debugging, which could
be further pruned by analyzing the commit history and comments.  But
this will incur much more overhead so we do not prune this type of
false positive."

This optional pruner implements that idea: a candidate is claimed when

* the commit that introduced its definition line says it is debugging/
  instrumentation/telemetry work, or
* the surrounding source carries debug/legacy markers.

It is *off by default* (matching the paper's shipped configuration); the
extensions ablation measures what enabling it buys and costs."""

from __future__ import annotations

import re

from repro.core.findings import Candidate
from repro.core.pruning.base import BasePruner, PruneContext
from repro.errors import VcsError
from repro.obs import PrunerVerdict

_MESSAGE_MARKERS = ("debug", "instrument", "telemetry", "diagnostic", "tracing")
_SOURCE_MARKERS = re.compile(r"\b(debug|instrumentation|legacy|deprecated|diagnostic)\b", re.IGNORECASE)


class HistoryPruner(BasePruner):
    name = "history"

    def decide(self, candidate: Candidate, context: PruneContext) -> PrunerVerdict:
        # Source-comment markers around the definition.
        for line in (candidate.line, candidate.decl_line):
            if not line:
                continue
            match = _SOURCE_MARKERS.search(context.raw_line(candidate, line))
            if match:
                return PrunerVerdict(
                    self.name,
                    True,
                    {"marker": "source", "token": match.group(0).lower(), "line": line},
                )
        # Commit-message markers on the introducing commit.
        repo = context.project.repo
        if repo is None:
            return PrunerVerdict(self.name, False, {"reason": "no repository"})
        info = context.project.blame_index(context.rev).line_info(candidate.file, candidate.line)
        if info is None:
            return PrunerVerdict(self.name, False, {"reason": "line not blamed"})
        try:
            commit = repo.commit_by_id(info.commit_id)
        except VcsError:
            return PrunerVerdict(self.name, False, {"reason": "commit not found"})
        message = commit.message.lower()
        for marker in _MESSAGE_MARKERS:
            if marker in message:
                return PrunerVerdict(
                    self.name,
                    True,
                    {"marker": "commit_message", "token": marker, "commit": info.commit_id},
                )
        return PrunerVerdict(self.name, False, {"commit": info.commit_id})
