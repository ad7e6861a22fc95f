"""Reaching definitions (forward may-analysis).

Links each load to the set of stores that may reach it.  State:
``var -> frozenset of Store uids``.

**Test oracle.**  No production code reads these chains.  They check the
liveness facts the detector uses (a store reported unused has no
reaching use, and vice versa: ``tests/test_properties.py``), and the
SSA-based sparse value-flow graph checks them in turn
(``tests/ssa/test_construction.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.traversal import reverse_postorder
from repro.dataflow.liveness import gen_vars, kill_var
from repro.ir.instructions import Instruction, Load, Store
from repro.ir.module import BasicBlock, Function

_State = dict[str, frozenset[int]]


def _join(accumulator: _State, other: _State) -> None:
    for var, definitions in other.items():
        existing = accumulator.get(var)
        accumulator[var] = definitions if existing is None else existing | definitions


def _transfer(instruction: Instruction, state: _State) -> None:
    killed = kill_var(instruction)
    if killed is not None and isinstance(instruction, Store):
        state[killed] = frozenset((instruction.uid,))


@dataclass
class ReachingDefinitions:
    """Converged reaching-def sets and the def-use chains derived from
    them."""

    function: Function
    block_in: dict[int, _State] = field(default_factory=dict)
    # Load uid -> uids of stores that may reach it (same tracked var).
    use_to_defs: dict[int, frozenset[int]] = field(default_factory=dict)
    # Store uid -> uids of loads it may reach.
    def_to_uses: dict[int, list[int]] = field(default_factory=dict)
    stores_by_uid: dict[int, Store] = field(default_factory=dict)
    loads_by_uid: dict[int, Load] = field(default_factory=dict)

    def uses_of(self, store: Store) -> list[Load]:
        return [self.loads_by_uid[uid] for uid in self.def_to_uses.get(store.uid, [])]

    def defs_of(self, load: Load) -> list[Store]:
        return [self.stores_by_uid[uid] for uid in sorted(self.use_to_defs.get(load.uid, ()))]


def reaching_definitions(function: Function) -> ReachingDefinitions:
    """Solve reaching definitions and build intra-procedural def-use chains
    over tracked variables."""
    result = ReachingDefinitions(function=function)
    for instruction in function.instructions():
        if isinstance(instruction, Store):
            result.stores_by_uid[instruction.uid] = instruction
        elif isinstance(instruction, Load):
            result.loads_by_uid[instruction.uid] = instruction

    order = reverse_postorder(function)
    seen = {id(block) for block in order}
    order.extend(block for block in function.blocks if id(block) not in seen)

    block_out: dict[int, _State] = {id(block): {} for block in function.blocks}
    result.block_in = {id(block): {} for block in function.blocks}

    for _ in range(100):
        changed = False
        for block in order:
            in_state: _State = {}
            for predecessor in block.predecessors:
                _join(in_state, block_out[id(predecessor)])
            if in_state != result.block_in[id(block)]:
                result.block_in[id(block)] = in_state
                changed = True
            state = dict(in_state)
            for instruction in block.instructions:
                _transfer(instruction, state)
            if state != block_out[id(block)]:
                block_out[id(block)] = state
                changed = True
        if not changed:
            break

    # Derive def-use chains with a final in-block pass.
    for block in function.blocks:
        state = dict(result.block_in[id(block)])
        for instruction in block.instructions:
            if isinstance(instruction, Load):
                for var in gen_vars(instruction):
                    reaching = state.get(var, frozenset())
                    # A whole-struct read also consumes field definitions.
                    info = function.variables.get(var)
                    if info is not None and info.is_struct:
                        prefix = var + "#"
                        for other_var, defs in state.items():
                            if other_var.startswith(prefix):
                                reaching = reaching | defs
                    if reaching:
                        result.use_to_defs[instruction.uid] = reaching
                        for def_uid in reaching:
                            result.def_to_uses.setdefault(def_uid, []).append(instruction.uid)
            _transfer(instruction, state)
    return result


def definition_has_use(rd: ReachingDefinitions, store: Store) -> bool:
    """True if any load may observe ``store``'s value."""
    return bool(rd.def_to_uses.get(store.uid))


__all__ = ["ReachingDefinitions", "reaching_definitions", "definition_has_use"]
