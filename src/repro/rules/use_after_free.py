"""Use-after-free detection over the IR + Andersen alias client.

The detector walks each function once to find *free sites* — calls to a
known deallocator whose argument is a tracked pointer variable — then
explores the CFG forward from each site looking for *use sites*: a
dereference (read or write) or a call argument that reaches the freed
pointer or one of its Andersen aliases before the pointer is
re-assigned.  Reachability is plain CFG traversal (the existing
:mod:`repro.cfg.traversal` model); aliasing is the same bitset points-to
client the unused-definitions alias check uses.

Noise control: a free site only exists when the callee name is one of
the *exact* deallocator idioms below and the argument is a
declared-pointer local — generated corpora suffix every function name
(``free_packet_17``), so the pack is silent on code that never calls a
real deallocator.
"""

from __future__ import annotations

from repro import obs
from repro.core.findings import Candidate, CandidateKind
from repro.ir.instructions import Call, DerefAddr, Load, Store, VarAddr
from repro.ir.module import BasicBlock, Function, Module
from repro.pointer.value_flow import ValueFlowGraph, value_source
from repro.rules.base import RulePack

#: Exact callee names treated as deallocators.
FREE_CALLEES = frozenset(
    {"free", "kfree", "vfree", "g_free", "xfree", "fclose", "close", "munmap"}
)


def _loaded_var(value, temp_defs) -> str | None:
    """The tracked variable ``value`` was loaded from, through casts."""
    defining = value_source(value, temp_defs)
    if isinstance(defining, Load) and isinstance(defining.addr, VarAddr):
        return defining.addr.var
    return None


class _FunctionScan:
    def __init__(self, function: Function, vfg: ValueFlowGraph):
        self.function = function
        self.vfg = vfg
        self.temp_defs = vfg.temp_defs(function)
        self._pts_cache: dict[str, frozenset] = {}

    def _pts(self, var: str) -> frozenset:
        if var not in self._pts_cache:
            self._pts_cache[var] = self.vfg.andersen.pts_of_var(self.function, var)
        return self._pts_cache[var]

    def _aliases(self, var: str, other: str) -> bool:
        if var == other:
            return True
        mine, theirs = self._pts(var), self._pts(other)
        return bool(mine) and bool(theirs) and bool(mine & theirs)

    def _freed_arg(self, call: Call) -> str | None:
        """The pointer variable a deallocator call frees, if any."""
        for arg in call.args:
            var = _loaded_var(arg, self.temp_defs)
            if var is None:
                continue
            info = self.function.variables.get(var)
            if info is not None and info.is_pointer and not info.artificial:
                return var
        return None

    def _use_of(self, instruction, freed: str) -> bool:
        """Does this instruction use the freed pointer (or an alias)?"""
        if isinstance(instruction, (Load, Store)):
            for addr in instruction.addresses():
                if isinstance(addr, DerefAddr):
                    base = _loaded_var(addr.pointer, self.temp_defs)
                    if base is not None and self._aliases(freed, base):
                        return True
            return False
        if isinstance(instruction, Call):
            # Passing the freed pointer onward — including a second free.
            for arg in instruction.args:
                base = _loaded_var(arg, self.temp_defs)
                if base is not None and self._aliases(freed, base):
                    return True
        return False

    @staticmethod
    def _kills(instruction, freed: str) -> bool:
        """Re-assignment of the pointer itself ends the freed window."""
        return (
            isinstance(instruction, Store)
            and isinstance(instruction.addr, VarAddr)
            and instruction.addr.var == freed
        )

    def _uses_after(self, block: BasicBlock, index: int, freed: str) -> list[int]:
        """Lines of every reachable use of ``freed`` past (block, index),
        stopping each path at a re-assignment."""
        uses: set[int] = set()
        stack: list[tuple[BasicBlock, int]] = [(block, index + 1)]
        seen: set[int] = set()
        while stack:
            current, start = stack.pop()
            stopped = False
            for instruction in current.instructions[start:]:
                if self._kills(instruction, freed):
                    stopped = True
                    break
                if self._use_of(instruction, freed):
                    uses.add(instruction.line)
            if stopped:
                continue
            for successor in current.successors:
                if id(successor) not in seen:
                    seen.add(id(successor))
                    stack.append((successor, 0))
        return sorted(uses)

    def run(self) -> list[Candidate]:
        candidates: list[Candidate] = []
        emitted: set[tuple[str, int, int]] = set()
        for block in self.function.blocks:
            for index, instruction in enumerate(block.instructions):
                if not isinstance(instruction, Call):
                    continue
                if instruction.callee not in FREE_CALLEES:
                    continue
                freed = self._freed_arg(instruction)
                if freed is None:
                    continue
                info = self.function.variables[freed]
                for use_line in self._uses_after(block, index, freed):
                    key = (freed, use_line, instruction.line)
                    if key in emitted:
                        continue
                    emitted.add(key)
                    candidates.append(
                        Candidate(
                            file=self.function.filename,
                            function=self.function.name,
                            var=freed,
                            line=use_line,
                            kind=CandidateKind.USE_AFTER_FREE,
                            callee=instruction.callee,
                            var_attrs=info.attrs,
                            decl_line=info.decl_line,
                            evidence_lines=(instruction.line,),
                        )
                    )
        candidates.sort(key=lambda c: (c.line, c.var, c.evidence_lines))
        return candidates


def detect_use_after_free(module: Module, vfg: ValueFlowGraph) -> list[Candidate]:
    candidates: list[Candidate] = []
    for name in sorted(module.functions):
        candidates.extend(_FunctionScan(module.functions[name], vfg).run())
    return candidates


class UseAfterFreePack(RulePack):
    name = "use_after_free"
    kinds = (CandidateKind.USE_AFTER_FREE,)
    # Unused-definition pruning heuristics do not transfer to site-pair
    # evidence; only the config-dependency check (dead #if arms) applies.
    pruner_policy = frozenset({"config_dependency"})
    resolution = "semantic"
    gate_policy = "block"

    @obs.traced("rules.detect")
    def detect(self, path: str, module: Module, vfg: ValueFlowGraph) -> list[Candidate]:
        return detect_use_after_free(module, vfg)

    def descriptions(self) -> dict[CandidateKind, str]:
        return {CandidateKind.USE_AFTER_FREE: "Pointer used after being freed"}
