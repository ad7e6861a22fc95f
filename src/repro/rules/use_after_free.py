"""Use-after-free detection over the IR + Andersen alias client.

The detector walks each function once to find *free sites* — calls to a
known deallocator whose argument is a tracked pointer variable — then
explores the CFG forward from each site looking for *use sites*: a
dereference (read or write) or a call argument that reaches the freed
pointer or one of its Andersen aliases before the pointer is
re-assigned.  The walk and the alias test on loaded values are the ones
the resource-leak pack uses (:class:`repro.rules.base.SiteScan`).

Noise control: a free site only exists when the callee name is one of
the *exact* deallocator idioms below and the argument is a
declared-pointer local — generated corpora suffix every function name
(``free_packet_17``), so the pack is silent on code that never calls a
real deallocator.
"""

from __future__ import annotations

from repro import obs
from repro.core.findings import Candidate, CandidateKind
from repro.ir.instructions import Call, DerefAddr, Load, Store
from repro.ir.module import Module
from repro.pointer.value_flow import ValueFlowGraph, loaded_var
from repro.rules.base import RulePack, SiteScan, reassigns

#: Exact callee names treated as deallocators.
FREE_CALLEES = frozenset(
    {"free", "kfree", "vfree", "g_free", "xfree", "fclose", "close", "munmap"}
)


class _FunctionScan(SiteScan):
    def _freed_arg(self, call: Call) -> str | None:
        """The pointer variable a deallocator call frees, if any."""
        for arg in call.args:
            var = loaded_var(arg, self.temp_defs)
            if var is None:
                continue
            info = self.function.variables.get(var)
            if info is not None and info.is_pointer and not info.artificial:
                return var
        return None

    def _use_of(self, instruction, freed: str) -> bool:
        """Does this instruction use the freed pointer (or an alias)?"""
        if isinstance(instruction, (Load, Store)):
            return any(
                isinstance(addr, DerefAddr) and self.loads(addr.pointer, freed)
                for addr in instruction.addresses()
            )
        # Passing the freed pointer onward — including a second free.
        return isinstance(instruction, Call) and any(
            self.loads(arg, freed) for arg in instruction.args
        )

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
                # Re-assignment of the pointer itself ends the freed window.
                passed, _ = self.walk_from(block, index, lambda i: reassigns(i, freed))
                for use_line in sorted({i.line for i in passed if self._use_of(i, freed)}):
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


class UseAfterFreePack(RulePack):
    name = "use_after_free"
    kinds = {CandidateKind.USE_AFTER_FREE: "Pointer used after being freed"}
    # Unused-definition pruning heuristics do not transfer to site-pair
    # evidence; only the config-dependency check (dead #if arms) applies.
    pruner_policy = frozenset({"config_dependency"})
    resolution = "semantic"
    gate_policy = "block"

    @obs.traced("rules.detect")
    def detect(self, path: str, module: Module, vfg: ValueFlowGraph) -> list[Candidate]:
        return [
            candidate
            for name in sorted(module.functions)
            for candidate in _FunctionScan(module.functions[name], vfg).run()
        ]
