"""Configuration-dependency pruning (paper §5.1).

A definition can look unused only because its uses sit under a
preprocessor conditional the current build configuration disabled —
the IR simply never saw them.  ValueCheck "looks into the corresponding
source code of each definition and checks if there is any use of this
definition enclosed by #if/#ifdef/#ifndef…#endif directives in the same
function"; if so, the definition is pruned.

We check the *raw* (pre-preprocessing) text: any occurrence of the
variable, other than the definition line itself, inside a conditional
region that overlaps the candidate's function.  The function's span and
the module's regions come from its engine record (the regions are what
the frontend's one preprocessing pass found), so no IR is read."""

from __future__ import annotations

import re

from repro.core.findings import Candidate, CandidateKind
from repro.core.pruning.base import BasePruner, PruneContext
from repro.obs import PrunerVerdict


class ConfigDependencyPruner(BasePruner):
    name = "config_dependency"

    def decide(self, candidate: Candidate, context: PruneContext) -> PrunerVerdict:
        if candidate.kind is CandidateKind.IGNORED_RETURN and candidate.store_kind is None:
            # Discarded calls have no variable to find uses of.
            return PrunerVerdict(self.name, False, {"reason": "no variable"})
        project = context.project
        function = project.function_location(candidate.file, candidate.function)
        if function is None:
            return PrunerVerdict(self.name, False, {"reason": "no raw source"})
        var = candidate.var.split("#", 1)[0]
        pattern = re.compile(rf"\b{re.escape(var)}\b")
        raw_lines = context.raw_lines(candidate)
        regions = 0
        for region in project.contribution(candidate.file).regions:
            if region.end < function.line or region.start > function.end_line:
                continue
            regions += 1
            start = max(region.start, 1)
            end = min(region.end, len(raw_lines))
            for line_number in range(start, end + 1):
                if line_number == candidate.line:
                    continue
                if pattern.search(raw_lines[line_number - 1]):
                    return PrunerVerdict(
                        self.name,
                        True,
                        {
                            "variable": var,
                            "guard_start": region.start,
                            "guard_end": region.end,
                            "use_line": line_number,
                        },
                    )
        return PrunerVerdict(
            self.name, False, {"variable": var, "guarded_regions": regions}
        )
