"""Coverity Scan unused-definition emulation (paper §8.4.4).

Two checkers are modelled:

* ``UNUSED_VALUE`` — a local assigned a value that is overwritten before
  any read (flow-based, like the real checker), but **not** parameters
  ("excluding other types of unused definitions (e.g. assigned but unused
  arguments)") and not field-sensitive;
* ``CHECKED_RETURN`` — an ignored call result is flagged only when the
  tool can *infer* the return should be used "based on the percentage of
  used return values.  If the function is only used once, it cannot
  correctly infer whether the return value should be used" — we require
  at least two other call sites and a usage majority.

Coverity respects explicit hints ((void) casts, unused attributes) but
"does not consider any authorship information and code semantics, so it
does not prune unused definitions that are intentionally left in the
code" — no cursor or config-dependency exclusion, no cross-scope filter.
"""

from __future__ import annotations

from repro.baselines.common import BaselineReport, BaselineWarning
from repro.core.findings import CandidateKind
from repro.core.project import Project
from repro.engine import AnalysisEngine

_TOOL = "coverity"


class CoverityUnused:
    name = "coverity"

    def __init__(self, min_peer_sites: int = 2, used_majority: float = 0.5):
        self.min_peer_sites = min_peer_sites
        self.used_majority = used_majority

    def _return_should_be_used(self, project: Project, callee: str | None, line_key) -> bool:
        if callee is None:
            return False
        usage = project.index.return_usage(callee)
        others = len(usage) - 1  # exclude this site
        if others < self.min_peer_sites:
            return False  # invoked (almost) only here: cannot infer
        used = sum(1 for flag in usage if flag)
        return used / len(usage) > self.used_majority

    def analyze(self, project: Project) -> BaselineReport:
        report = BaselineReport(tool=_TOOL)
        # One pass per module yields both the candidates and the index
        # contributions the peer-usage inference reads.
        run = AnalysisEngine(cache=None, rules=("unused_definitions",)).run(project)
        for path in sorted(project.sources):
            for candidate in run.by_path[path].candidates:
                if candidate.void_cast:
                    continue
                if any("unused" in attr for attr in candidate.var_attrs):
                    continue
                if candidate.kind is CandidateKind.OVERWRITTEN_DEF and not candidate.is_field:
                    report.warnings.append(
                        BaselineWarning(
                            _TOOL,
                            "UNUSED_VALUE",
                            path,
                            candidate.function,
                            candidate.var,
                            candidate.line,
                        )
                    )
                elif candidate.kind is CandidateKind.IGNORED_RETURN and candidate.store_kind is None:
                    if self._return_should_be_used(project, candidate.callee, candidate.key):
                        report.warnings.append(
                            BaselineWarning(
                                _TOOL,
                                "CHECKED_RETURN",
                                path,
                                candidate.function,
                                candidate.var,
                                candidate.line,
                            )
                        )
        return report
