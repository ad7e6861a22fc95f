"""Value-flow graph: def-use chains enriched with alias information.

The paper (§4.1 "Pointer and Alias"): *"To handle aliases of variables, we
check the value-flow graph generated based on the point-to graph to see
whether this definition is used somewhere else. If it has other use, this
definition is not an unused definition."*

The graph here combines:

* intra-procedural def-use chains from reaching definitions
  (:mod:`repro.dataflow.reaching`), and
* escape information from Andersen's analysis: a variable whose address is
  taken *and* observed by some pointer may be read through that pointer,
  so its definitions are conservatively considered used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.dataflow.reaching import ReachingDefinitions, reaching_definitions
from repro.ir.instructions import AddrOf, Call, FieldAddr, Store, VarAddr
from repro.ir.module import Function, Module
from repro.pointer.andersen import AndersenResult, analyze_module


@dataclass
class ValueFlowGraph:
    """Per-module value-flow facts consumed by the detector and pruners."""

    module: Module
    andersen: AndersenResult
    reaching: dict[str, ReachingDefinitions] = field(default_factory=dict)
    # fn name -> vars whose address is taken somewhere in the function
    address_taken: dict[str, set[str]] = field(default_factory=dict)
    # fn name -> uids of Call instructions whose result temp is never read
    unused_call_results: dict[str, set[int]] = field(default_factory=dict)
    # (fn name, var) -> alias-check verdict; the detector probes the same
    # variable once per candidate, and each miss costs two points-to
    # translations.
    _indirect_cache: dict[tuple[str, str], bool] = field(default_factory=dict)

    def reaching_for(self, function: Function) -> ReachingDefinitions:
        if function.name not in self.reaching:
            self.reaching[function.name] = reaching_definitions(function)
        return self.reaching[function.name]

    def definition_used(self, function: Function, store: Store) -> bool:
        """Direct (def-use chain) use of this store's value."""
        rd = self.reaching_for(function)
        return bool(rd.def_to_uses.get(store.uid))

    def may_be_used_indirectly(self, function: Function, var: str) -> bool:
        """The alias check: True if ``var`` is referenced by pointers
        (address taken and visible in some points-to set)."""
        base = var.split("#", 1)[0]
        if base not in self.address_taken.get(function.name, ()):
            return False
        key = (function.name, var)
        cached = self._indirect_cache.get(key)
        if cached is None:
            cached = self.andersen.is_pointed_to(function, var) or self.andersen.is_pointed_to(
                function, base
            )
            self._indirect_cache[key] = cached
        return cached

    def call_result_unused(self, function: Function, call: Call) -> bool:
        return call.uid in self.unused_call_results.get(function.name, set())

    def resolve_call(self, call: Call) -> list[str]:
        return self.andersen.callees_of(call)


def _collect_address_taken(function: Function) -> set[str]:
    taken: set[str] = set()
    for instruction in function.instructions():
        if isinstance(instruction, AddrOf):
            if isinstance(instruction.addr, (VarAddr, FieldAddr)):
                base = instruction.addr.base_var()
                if base is not None:
                    taken.add(base)
    return taken


def _collect_unused_call_results(function: Function) -> set[int]:
    use_map = function.temp_use_map()
    unused: set[int] = set()
    for instruction in function.instructions():
        if isinstance(instruction, Call) and instruction.dest is not None:
            if not use_map.get(instruction.dest):
                unused.add(instruction.uid)
    return unused


def build_value_flow(module: Module, andersen: AndersenResult | None = None) -> ValueFlowGraph:
    """Build the value-flow graph for ``module`` (running Andersen's
    analysis unless a result is supplied)."""
    with obs.span("pointer.vfg", module=module.filename):
        if andersen is None:
            andersen = analyze_module(module)
        graph = ValueFlowGraph(module=module, andersen=andersen)
        for function in module.functions.values():
            graph.address_taken[function.name] = _collect_address_taken(function)
            graph.unused_call_results[function.name] = _collect_unused_call_results(function)
    return graph
