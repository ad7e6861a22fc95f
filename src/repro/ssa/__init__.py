"""SSA view of the IR: dominators, dominance frontiers, phi placement.

SVF — the paper's value-flow substrate — builds *sparse* value-flow
graphs on top of SSA form.  This package reproduces that layer:

* :mod:`repro.ssa.dominators` — immediate dominators via the classic
  Cooper–Harvey–Kennedy iterative algorithm, plus dominance frontiers;
* :mod:`repro.ssa.construction` — pruned-SSA phi placement and renaming
  over the load/store IR.  The IR itself is left untouched; SSA is a
  side structure mapping every load to the unique SSA definition (store
  or phi) it observes.

The sparse value-flow graph in :mod:`repro.pointer.sparse_vfg` consumes
this to give exact def→use edges.

**Test oracle.**  The production pipeline does not use this package.  It
and :mod:`repro.pointer.sparse_vfg` are kept as the independent check on
the reaching-definitions facts production answers "is this definition
used?" from (``ValueFlowGraph.definition_used``): the property test
``test_sparse_agrees_with_reaching_definitions`` in
``tests/ssa/test_construction.py`` requires the two to agree on random
programs."""

from repro.ssa.dominators import DominatorTree, compute_dominators, dominance_frontiers
from repro.ssa.construction import SsaForm, build_ssa, PhiNode, SsaDef

__all__ = [
    "DominatorTree",
    "compute_dominators",
    "dominance_frontiers",
    "SsaForm",
    "build_ssa",
    "PhiNode",
    "SsaDef",
]
