"""Dead-code elimination over the load/store IR (paper §2.2).

"Detecting unused definitions has been regarded as compiler optimization
for a long time … merged into mainstream compilers to eliminate redundant
computation."  This pass is that classical consumer of the same liveness
facts ValueCheck reinterprets as bug symptoms: it computes the
instructions a compiler would delete —

* stores to tracked variables whose value is never read (dead stores),
* pure instructions whose result temp is (transitively) unused,
* allocas of variables that are never loaded.

The pass is *analysis only* by default (`dead_instructions`), with an
optional in-place transform (`eliminate_dead_code`) used by tests to show
that ValueCheck's store-shaped candidates are exactly the dead stores a
compiler would remove — the paper's point that the same facts serve two
masters.  Calls are never removed (side effects), which is also why "the
compiler already deletes it" does not make an ignored return value
harmless.

**Test oracle.**  No production code runs this pass.  Together with
:mod:`repro.ir.interp` it checks the liveness facts the detector
consumes: ``test_dce_preserves_semantics`` (``tests/ir/test_interp.py``)
deletes everything those facts call dead and requires the interpreter to
compute the same results on random programs."""

from __future__ import annotations

from repro.dataflow.liveness import unused_definitions
from repro.ir.instructions import (
    AddrOf,
    Alloca,
    BinOp,
    CastOp,
    Instruction,
    Load,
    Select,
    Store,
    UnOp,
)
from repro.ir.module import Function
from repro.ir.values import Temp

_PURE = (Load, BinOp, UnOp, CastOp, Select, AddrOf)


def dead_instructions(function: Function) -> list[Instruction]:
    """Instructions a DCE pass would delete, in a safe deletion order."""
    dead: list[Instruction] = []
    dead_ids: set[int] = set()

    # 1. Dead stores: flow-sensitive liveness, the same facts the
    # unused-definition detector consumes.
    dead_store_keys = {
        (entry.var, entry.line) for entry in unused_definitions(function)
    }
    for instruction in function.instructions():
        if isinstance(instruction, Store) and instruction.addr is not None:
            tracked = instruction.addr.tracked_var()
            if tracked is not None and (tracked, instruction.line) in dead_store_keys:
                dead.append(instruction)
                dead_ids.add(instruction.uid)

    # 2. Transitively unused pure temps (uses only by already-dead code).
    changed = True
    while changed:
        changed = False
        use_counts: dict[Temp, int] = {}
        for instruction in function.instructions():
            if instruction.uid in dead_ids:
                continue
            for operand in instruction.operands():
                if isinstance(operand, Temp):
                    use_counts[operand] = use_counts.get(operand, 0) + 1
        for instruction in function.instructions():
            if instruction.uid in dead_ids or not isinstance(instruction, _PURE):
                continue
            result = instruction.result()
            if result is not None and use_counts.get(result, 0) == 0:
                dead.append(instruction)
                dead_ids.add(instruction.uid)
                changed = True

    # 3. Allocas of variables with no remaining direct access.
    live_vars: set[str] = set()
    for instruction in function.instructions():
        if instruction.uid in dead_ids:
            continue
        for addr in instruction.addresses():
            base = addr.base_var()
            if base is not None:
                live_vars.add(base)
    for instruction in function.instructions():
        if isinstance(instruction, Alloca) and not instruction.is_param:
            if instruction.var not in live_vars:
                dead.append(instruction)
                dead_ids.add(instruction.uid)
    return dead


def eliminate_dead_code(function: Function) -> int:
    """Remove dead instructions in place; returns how many were removed.
    Iterates to a fixpoint (removing a store can kill the load feeding
    it, which can kill an earlier store, …)."""
    removed_total = 0
    while True:
        dead = dead_instructions(function)
        if not dead:
            return removed_total
        dead_ids = {instruction.uid for instruction in dead}
        for block in function.blocks:
            block.instructions = [
                instruction
                for instruction in block.instructions
                if instruction.uid not in dead_ids
            ]
        removed_total += len(dead)


def dce_summary(function: Function) -> dict[str, int]:
    """Counts per instruction category a DCE pass would delete."""
    summary = {"stores": 0, "pure": 0, "allocas": 0}
    for instruction in dead_instructions(function):
        if isinstance(instruction, Store):
            summary["stores"] += 1
        elif isinstance(instruction, Alloca):
            summary["allocas"] += 1
        else:
            summary["pure"] += 1
    return summary
