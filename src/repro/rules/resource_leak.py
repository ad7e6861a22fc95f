"""Resource-leak detection: acquire sites with a release-free exit path.

An *acquire site* is a call to a known constructor idiom (open / socket /
lock / alloc — the taxonomy the corpus snippets plant) whose result is
stored into a tracked local.  A *release site* is a call to a matching
destructor idiom whose argument reaches the handle or an Andersen alias
of it.  The pack reports an acquire when the function releases the
handle on at least one path but some CFG path from the acquire reaches a
function exit without passing any release — the partial-release shape
real leaks take.  Path sensitivity is limited to the existing CFG
traversal utilities: a forward walk with release sites as barriers.

Requiring ≥1 release keeps the pack silent on code that never manages
the resource (intentional hand-off, registry ownership) — and on the
legacy corpora, which call no bare acquire/release idiom at all.

A *semantic triage hook* runs last: callers may install an oracle (an
LLM triage stage, a heuristic filter) that vetoes candidates before they
enter the pipeline.
"""

from __future__ import annotations

from typing import Callable

from repro import obs
from repro.core.findings import Candidate, CandidateKind
from repro.ir.instructions import Call, Store, VarAddr
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import Temp
from repro.pointer.value_flow import ValueFlowGraph
from repro.rules.base import RulePack
from repro.rules.use_after_free import _loaded_var

#: Exact acquire-idiom callee names (returns an owned handle).
ACQUIRE_CALLEES = frozenset(
    {"fopen", "open", "socket", "malloc", "kmalloc", "calloc", "mmap", "mutex_lock"}
)

#: Exact release-idiom callee names (consumes the handle argument).
RELEASE_CALLEES = frozenset(
    {"fclose", "close", "free", "kfree", "munmap", "mutex_unlock"}
)

#: Optional oracle consulted per candidate (see docs/RULES.md): return
#: False to veto.  Anticipates a semantic-triage layer in front of the
#: report, as in LLM-assisted static-analysis triage.
SEMANTIC_TRIAGE: Callable[[Candidate, Module], bool] | None = None


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

    def _is_release(self, instruction, handle: str) -> bool:
        if not isinstance(instruction, Call) or instruction.callee not in RELEASE_CALLEES:
            return False
        for arg in instruction.args:
            var = _loaded_var(arg, self.temp_defs)
            if var is not None and self._aliases(handle, var):
                return True
        return False

    @staticmethod
    def _kills(instruction, handle: str) -> bool:
        return (
            isinstance(instruction, Store)
            and isinstance(instruction.addr, VarAddr)
            and instruction.addr.var == handle
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

    def _release_lines(self, handle: str) -> list[int]:
        return sorted(
            instruction.line
            for instruction in self.function.instructions()
            if self._is_release(instruction, handle)
        )

    def _leaks(self, block: BasicBlock, index: int, handle: str) -> bool:
        """True if some path from past (block, index) reaches an exit
        without releasing (or re-assigning) the handle."""
        stack: list[tuple[BasicBlock, int]] = [(block, index + 1)]
        seen: set[int] = set()
        while stack:
            current, start = stack.pop()
            stopped = False
            for instruction in current.instructions[start:]:
                if self._is_release(instruction, handle) or self._kills(instruction, handle):
                    stopped = True
                    break
            if stopped:
                continue
            if not current.successors:
                return True
            for successor in current.successors:
                if id(successor) not in seen:
                    seen.add(id(successor))
                    stack.append((successor, 0))
        return False

    def run(self) -> list[Candidate]:
        candidates: list[Candidate] = []
        emitted: set[tuple[str, int]] = set()
        for block, index, handle, acquirer, line in self._acquisitions():
            releases = self._release_lines(handle)
            if not releases:
                continue  # never released here — ownership moved elsewhere
            if not self._leaks(block, index, handle):
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


def detect_resource_leak(module: Module, vfg: ValueFlowGraph) -> list[Candidate]:
    candidates: list[Candidate] = []
    for name in sorted(module.functions):
        candidates.extend(_FunctionScan(module.functions[name], vfg).run())
    if SEMANTIC_TRIAGE is not None:
        candidates = [c for c in candidates if SEMANTIC_TRIAGE(c, module)]
    return candidates


class ResourceLeakPack(RulePack):
    name = "resource_leak"
    kinds = (CandidateKind.RESOURCE_LEAK,)
    pruner_policy = frozenset({"config_dependency"})
    resolution = "semantic"
    # Leaks degrade, they rarely corrupt: surface them without failing CI.
    gate_policy = "warn"

    @obs.traced("rules.detect")
    def detect(self, path: str, module: Module, vfg: ValueFlowGraph) -> list[Candidate]:
        return detect_resource_leak(module, vfg)

    def descriptions(self) -> dict[CandidateKind, str]:
        return {
            CandidateKind.RESOURCE_LEAK: "Acquired resource not released on every path"
        }
