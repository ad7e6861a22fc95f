"""The rule-pack interface every detector plugs into, and the scan the
site-pair packs share.

A pack is a stateless detector plus the policy the shared pipeline needs
to route its candidates:

* ``detect(path, module, vfg)`` — per-module candidate production, the
  same unit of work the engine schedules and content-caches.
* ``kinds`` — the candidate kinds the pack emits, each mapped to its
  SARIF rule text (drives rules/ruleIndex metadata).
* ``pruner_policy`` — which pruning strategies may claim this pack's
  candidates (``None`` = all registered strategies, the historical
  behaviour of the unused-definitions rule).
* ``resolution`` — ``"authorship"`` routes candidates through the
  cross-scope resolver; ``"semantic"`` packs carry their evidence in
  ``Candidate.evidence_lines`` and are blamed directly.
* ``gate_policy`` — ``"block"`` findings fail ``valuecheck gate`` when
  new/reopened; ``"warn"`` findings are surfaced but never block.

The use-after-free and resource-leak packs both pair a site with what
CFG paths from it reach; :class:`SiteScan` is their one function's view:
the alias test on loaded values and the forward walk.
"""

from __future__ import annotations

from typing import Callable

from repro.core.findings import Candidate, CandidateKind
from repro.ir.instructions import Instruction, Store, VarAddr
from repro.ir.module import BasicBlock, Function, Module
from repro.pointer.value_flow import ValueFlowGraph, loaded_var


class RulePack:
    """Base class: subclasses override the class attributes and ``detect``."""

    #: Registry name; the value ``--rules`` selects.
    name: str = ""
    #: Candidate kinds this pack emits (a kind belongs to exactly one
    #: pack), each with its SARIF shortDescription.
    kinds: dict[CandidateKind, str] = {}
    #: Pruning strategies allowed to claim this pack's candidates
    #: (``None`` = every registered strategy).
    pruner_policy: frozenset[str] | None = None
    #: 'authorship' | 'semantic' — how findings acquire AuthorshipInfo.
    resolution: str = "authorship"
    #: 'block' | 'warn' — whether new/reopened findings fail the gate.
    gate_policy: str = "block"

    def detect(self, path: str, module: Module, vfg: ValueFlowGraph) -> list[Candidate]:
        raise NotImplementedError

    def allows_pruner(self, pruner_name: str) -> bool:
        return self.pruner_policy is None or pruner_name in self.pruner_policy


def reassigns(instruction: Instruction, var: str) -> bool:
    """Whether ``instruction`` stores a new value into ``var`` itself."""
    return (
        isinstance(instruction, Store)
        and isinstance(instruction.addr, VarAddr)
        and instruction.addr.var == var
    )


class SiteScan:
    """One function of a module, as a site-pair pack scans it."""

    def __init__(self, function: Function, vfg: ValueFlowGraph):
        self.function = function
        self.vfg = vfg
        self.temp_defs = vfg.temp_defs(function)

    def loads(self, value, var: str) -> bool:
        """Whether ``value`` was loaded, through casts, from ``var`` or from
        a variable that may alias it."""
        loaded = loaded_var(value, self.temp_defs)
        return loaded is not None and self.vfg.may_alias(self.function, var, loaded)

    @staticmethod
    def walk_from(
        block: BasicBlock, index: int, barrier: Callable[[Instruction], bool]
    ) -> tuple[list[Instruction], bool]:
        """Follow every CFG path from just past ``block.instructions[index]``,
        stopping each at the first instruction ``barrier`` holds for: the
        instructions passed, and whether some path reached a function exit."""
        passed: list[Instruction] = []
        exits = False
        stack: list[tuple[BasicBlock, int]] = [(block, index + 1)]
        seen: set[int] = set()
        while stack:
            current, start = stack.pop()
            for instruction in current.instructions[start:]:
                if barrier(instruction):
                    break
                passed.append(instruction)
            else:
                exits = exits or not current.successors
                for successor in current.successors:
                    if id(successor) not in seen:
                        seen.add(id(successor))
                        stack.append((successor, 0))
        return passed, exits
