"""Cursor pruning (paper §5.2, Fig. 5).

``*o++ = c`` leaves the final increment of ``o`` dead, but the increment
*is* the semantics — "moving the cursor".  The paper prunes a definition
"if a variable is incremented repeatedly by the same constant".

We use the increment provenance the IR builder records: a candidate whose
store has ``increment_delta`` set is pruned when the function contains at
least ``min_increments`` stores to the same variable with that same delta
(the candidate itself included).  The detector counts those stores and
carries the count on the candidate, so pruning reads no IR."""

from __future__ import annotations

from repro.core.findings import Candidate
from repro.core.pruning.base import BasePruner, PruneContext
from repro.obs import PrunerVerdict


class CursorPruner(BasePruner):
    name = "cursor"

    def __init__(self, min_increments: int = 2):
        self.min_increments = min_increments

    def decide(self, candidate: Candidate, context: PruneContext) -> PrunerVerdict:
        if candidate.increment_delta is None:
            return PrunerVerdict(self.name, False, {"reason": "not an increment"})
        same_delta = candidate.same_delta_stores
        return PrunerVerdict(
            self.name,
            same_delta >= self.min_increments,
            {
                "delta": candidate.increment_delta,
                "same_delta_stores": same_delta,
                "min_increments": self.min_increments,
            },
        )
