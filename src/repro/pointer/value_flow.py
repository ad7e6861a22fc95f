"""Value-flow graph: per-function def-use facts enriched with alias information.

The paper (§4.1 "Pointer and Alias"): *"To handle aliases of variables, we
check the value-flow graph generated based on the point-to graph to see
whether this definition is used somewhere else. If it has other use, this
definition is not an unused definition."*

The graph here combines:

* per-function facts every rule pack and the project index read, each
  computed once, on first request: the temp def and use maps, and Fig. 4's
  LiveSet + DefSet solve (:func:`repro.dataflow.liveness.live_definitions`);
* escape information from Andersen's analysis: a variable whose address is
  taken *and* observed by some pointer may be read through that pointer,
  so its definitions are conservatively considered used; and
* the alias test of the site-pair rules (use-after-free, resource leaks):
  two variables may alias when their Andersen points-to sets meet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.dataflow.liveness import LiveDefResult, live_definitions
from repro.ir.instructions import AddrOf, Call, CastOp, FieldAddr, Instruction, Load, VarAddr
from repro.ir.module import Function, Module
from repro.ir.values import Temp
from repro.pointer.andersen import AndersenResult, analyze_module


@dataclass
class ValueFlowGraph:
    """Per-module value-flow facts consumed by the detector and pruners."""

    module: Module
    andersen: AndersenResult
    # fn name -> vars whose address is taken somewhere in the function
    address_taken: dict[str, set[str]] = field(default_factory=dict)
    # (fn name, var) -> alias-check verdict; the detector probes the same
    # variable once per candidate, and each miss costs two points-to
    # translations.
    _indirect_cache: dict[tuple[str, str], bool] = field(default_factory=dict)
    # fn name -> that function's def map, use map and Fig. 4 solve.
    _def_maps: dict[str, dict[Temp, Instruction]] = field(default_factory=dict)
    _use_maps: dict[str, dict[Temp, list[Instruction]]] = field(default_factory=dict)
    _solves: dict[str, LiveDefResult] = field(default_factory=dict)
    # (fn name, var) -> points-to set; a site-pair rule tests one site's
    # variable against every variable loaded after it.
    _points_to: dict[tuple[str, str], frozenset] = field(default_factory=dict)

    def temp_defs(self, function: Function) -> dict[Temp, Instruction]:
        """Each temp's defining instruction (built once per function)."""
        defs = self._def_maps.get(function.name)
        if defs is None:
            defs = self._def_maps[function.name] = function.temp_def_map()
        return defs

    def temp_uses(self, function: Function) -> dict[Temp, list[Instruction]]:
        """The instructions that read each temp (built once per function)."""
        uses = self._use_maps.get(function.name)
        if uses is None:
            uses = self._use_maps[function.name] = function.temp_use_map()
        return uses

    def liveness(self, function: Function) -> LiveDefResult:
        """Fig. 4's converged LiveSet + DefSet (solved once per function)."""
        solve = self._solves.get(function.name)
        if solve is None:
            solve = self._solves[function.name] = live_definitions(function)
        return solve

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

    def may_alias(self, function: Function, var: str, other: str) -> bool:
        """The site-pair alias test: the same variable, or two whose
        points-to sets meet."""
        return var == other or not self._pts(function, var).isdisjoint(
            self._pts(function, other)
        )

    def _pts(self, function: Function, var: str) -> frozenset:
        key = (function.name, var)
        pts = self._points_to.get(key)
        if pts is None:
            pts = self._points_to[key] = self.andersen.pts_of_var(function, var)
        return pts

    def resolve_call(self, call: Call) -> list[str]:
        return self.andersen.callees_of(call)


def value_source(value, temp_defs: dict[Temp, Instruction]) -> Instruction | None:
    """The instruction that defines ``value``, looking through up to eight
    casts (None for a non-temp, or a longer cast chain)."""
    for _ in range(8):
        if not isinstance(value, Temp):
            return None
        defining = temp_defs.get(value)
        if not isinstance(defining, CastOp):
            return defining
        value = defining.value
    return None


def loaded_var(value, temp_defs: dict[Temp, Instruction]) -> str | None:
    """The variable ``value`` was loaded from, through casts (None when it
    is not a plain variable load)."""
    defining = value_source(value, temp_defs)
    if isinstance(defining, Load) and isinstance(defining.addr, VarAddr):
        return defining.addr.var
    return None


def call_result_used(call: Call, temp_uses: dict[Temp, list[Instruction]]) -> bool:
    """Whether anything but a ``(void)`` cast reads the call's result (a
    void call has no result to discard, so it counts as used)."""
    if call.dest is None:
        return True
    return any(
        not (isinstance(use, CastOp) and use.to_void) for use in temp_uses.get(call.dest, ())
    )


def _collect_address_taken(function: Function) -> set[str]:
    taken: set[str] = set()
    for instruction in function.instructions():
        if isinstance(instruction, AddrOf):
            if isinstance(instruction.addr, (VarAddr, FieldAddr)):
                base = instruction.addr.base_var()
                if base is not None:
                    taken.add(base)
    return taken


def build_value_flow(module: Module, andersen: AndersenResult | None = None) -> ValueFlowGraph:
    """Build the value-flow graph for ``module`` (running Andersen's
    analysis unless a result is supplied)."""
    with obs.span("pointer.vfg", module=module.filename):
        if andersen is None:
            andersen = analyze_module(module)
        graph = ValueFlowGraph(module=module, andersen=andersen)
        for function in module.functions.values():
            graph.address_taken[function.name] = _collect_address_taken(function)
    return graph
