"""Dataflow analyses over the load/store IR.

:mod:`repro.dataflow.framework` provides a generic worklist solver for
backward analyses;
:mod:`repro.dataflow.liveness` is the classic flow-sensitive liveness of
named variables (paper §2.1), used by baselines and by the §3.1
preliminary-study replication, plus Fig. 4's LiveSet + DefSet solve that
the core detector and the project index share.
:mod:`repro.dataflow.reaching` (reaching definitions) has no production
caller: it is a test oracle, and this package does not import it.
"""

from repro.dataflow.framework import BackwardSolver, BlockStates
from repro.dataflow.liveness import (
    LivenessResult,
    gen_vars,
    kill_var,
    live_definitions,
    live_variables,
    unused_definitions,
)

__all__ = [
    "BackwardSolver",
    "BlockStates",
    "LivenessResult",
    "gen_vars",
    "kill_var",
    "live_definitions",
    "live_variables",
    "unused_definitions",
]
