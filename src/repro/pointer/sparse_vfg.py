"""Sparse value-flow graph over SSA form (the SVF-style layer).

SVF builds its value-flow graphs *sparsely*: def→use edges follow SSA
def-use chains (with phis as join nodes) instead of re-walking the CFG.
This module provides that representation for one function and the same
client query the dense (reaching-definitions) path answers —
"does this definition have a use?" — so the two can be cross-checked.

Edges:

* store → load            (the load observes the store directly)
* store → phi, phi → phi  (the value flows through join points)
* phi → load

``definition_used`` is True iff some load node is reachable from the
store's definition node.

**Test oracle.**  No production code builds this graph.  It is the
independent check on production's dense answer
(``ValueFlowGraph.definition_used``, from reaching definitions): see
``test_sparse_agrees_with_reaching_definitions`` in
``tests/ssa/test_construction.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.instructions import Load, Store
from repro.ir.module import Function
from repro.ssa.construction import PhiNode, SsaDef, SsaForm, build_ssa

_Node = tuple[str, int]  # ("def"|"phi"|"load", uid/id)


@dataclass
class SparseValueFlow:
    """Sparse def→use graph of one function."""

    function: Function
    ssa: SsaForm
    edges: dict[_Node, list[_Node]] = field(default_factory=dict)
    load_nodes: set[_Node] = field(default_factory=set)

    def _reachable(self, start: _Node) -> set[_Node]:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for succ in self.edges.get(node, ()):  # DFS
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def definition_used(self, store: Store) -> bool:
        """True iff a load is reachable from this store's def node."""
        return any(node in self.load_nodes for node in self._reachable(("def", store.uid)))

    def flows_of(self, store: Store) -> list[Load]:
        """The loads that may observe this store (for reporting)."""
        loads_by_uid = {
            instruction.uid: instruction
            for instruction in self.function.instructions()
            if isinstance(instruction, Load)
        }
        out = []
        for kind, uid in self._reachable(("def", store.uid)):
            if kind == "load" and uid in loads_by_uid:
                out.append(loads_by_uid[uid])
        out.sort(key=lambda load: load.uid)
        return out


def _def_node(ssa_def: SsaDef) -> _Node:
    if ssa_def.store_uid is not None:
        return ("def", ssa_def.store_uid)
    if ssa_def.phi is not None:
        return ("phi", id(ssa_def.phi))
    return ("undef", id(ssa_def))


def build_sparse_vfg(function: Function, ssa: SsaForm | None = None) -> SparseValueFlow:
    """Build the sparse value-flow graph for ``function``."""
    if ssa is None:
        ssa = build_ssa(function)
    graph = SparseValueFlow(function=function, ssa=ssa)

    def add_edge(src: _Node, dst: _Node) -> None:
        bucket = graph.edges.setdefault(src, [])
        if dst not in bucket:
            bucket.append(dst)

    # def/phi → load edges.
    for load_uid, ssa_defs in ssa.use_defs.items():
        load_node: _Node = ("load", load_uid)
        graph.load_nodes.add(load_node)
        for ssa_def in ssa_defs:
            add_edge(_def_node(ssa_def), load_node)

    # operand → phi edges.
    for phi in ssa.all_phis():
        phi_node: _Node = ("phi", id(phi))
        for operand in phi.operands:
            add_edge(_def_node(operand), phi_node)
    return graph
