"""Resource-leak detection: acquire sites with a release-free exit path.

An *acquire site* is a call to a known constructor idiom (open / socket /
lock / alloc — the taxonomy the corpus snippets plant) whose result is
stored into a tracked local.  A *release site* is a call to a matching
destructor idiom whose argument reaches the handle or an Andersen alias
of it.  The pack reports an acquire when the function releases the
handle on at least one path but some CFG path from the acquire reaches a
function exit without passing any release — the partial-release shape
real leaks take.  Path sensitivity is limited to a forward CFG walk,
shared with the use-after-free pack (:class:`repro.rules.base.SiteScan`),
with release sites as barriers.

Requiring ≥1 release keeps the pack silent on code that never manages
the resource (intentional hand-off, registry ownership) — and on the
legacy corpora, which call no bare acquire/release idiom at all.
"""

from __future__ import annotations

from repro import obs
from repro.core.findings import Candidate, CandidateKind
from repro.ir.instructions import Call, Store, VarAddr
from repro.ir.module import BasicBlock, Module
from repro.ir.values import Temp
from repro.pointer.value_flow import ValueFlowGraph
from repro.rules.base import RulePack, SiteScan, reassigns

#: Exact acquire-idiom callee names (returns an owned handle).
ACQUIRE_CALLEES = frozenset(
    {"fopen", "open", "socket", "malloc", "kmalloc", "calloc", "mmap", "mutex_lock"}
)

#: Exact release-idiom callee names (consumes the handle argument).
RELEASE_CALLEES = frozenset(
    {"fclose", "close", "free", "kfree", "munmap", "mutex_unlock"}
)


class _FunctionScan(SiteScan):
    def _is_release(self, instruction, handle: str) -> bool:
        return (
            isinstance(instruction, Call)
            and instruction.callee in RELEASE_CALLEES
            and any(self.loads(arg, handle) for arg in instruction.args)
        )

    def _acquisitions(self) -> list[tuple[BasicBlock, int, str, str, int]]:
        """(block, store index, handle var, acquire callee, line) for every
        ``handle = acquire(...)`` store."""
        out: list[tuple[BasicBlock, int, str, str, int]] = []
        for block in self.function.blocks:
            for index, instruction in enumerate(block.instructions):
                if not isinstance(instruction, Store):
                    continue
                if not isinstance(instruction.addr, VarAddr):
                    continue
                value = instruction.value
                if not isinstance(value, Temp):
                    continue
                defining = self.temp_defs.get(value)
                if not isinstance(defining, Call) or defining.callee not in ACQUIRE_CALLEES:
                    continue
                handle = instruction.addr.var
                info = self.function.variables.get(handle)
                if info is None or info.artificial:
                    continue
                out.append((block, index, handle, defining.callee, instruction.line))
        return out

    def run(self) -> list[Candidate]:
        candidates: list[Candidate] = []
        emitted: set[tuple[str, int]] = set()
        for block, index, handle, acquirer, line in self._acquisitions():
            releases = sorted(
                instruction.line
                for instruction in self.function.instructions()
                if self._is_release(instruction, handle)
            )
            if not releases:
                continue  # never released here — ownership moved elsewhere
            # Leaks if some path reaches an exit without releasing (or
            # re-assigning) the handle.
            _, exits = self.walk_from(
                block, index, lambda i: self._is_release(i, handle) or reassigns(i, handle)
            )
            if not exits:
                continue
            key = (handle, line)
            if key in emitted:
                continue
            emitted.add(key)
            info = self.function.variables[handle]
            candidates.append(
                Candidate(
                    file=self.function.filename,
                    function=self.function.name,
                    var=handle,
                    line=line,
                    kind=CandidateKind.RESOURCE_LEAK,
                    callee=acquirer,
                    var_attrs=info.attrs,
                    decl_line=info.decl_line,
                    evidence_lines=tuple(releases),
                )
            )
        candidates.sort(key=lambda c: (c.line, c.var))
        return candidates


class ResourceLeakPack(RulePack):
    name = "resource_leak"
    kinds = {CandidateKind.RESOURCE_LEAK: "Acquired resource not released on every path"}
    pruner_policy = frozenset({"config_dependency"})
    resolution = "semantic"
    # Leaks degrade, they rarely corrupt: surface them without failing CI.
    gate_policy = "warn"

    @obs.traced("rules.detect")
    def detect(self, path: str, module: Module, vfg: ValueFlowGraph) -> list[Candidate]:
        return [
            candidate
            for name in sorted(module.functions)
            for candidate in _FunctionScan(module.functions[name], vfg).run()
        ]
