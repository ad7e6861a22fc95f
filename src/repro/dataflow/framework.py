"""Generic worklist solver for backward dataflow problems.

The paper's Fig. 4 loop ("while Change … traverse basic blocks reversely …
iterate to handle loops") is a fixpoint iteration.  The solver here
generalises it: clients supply a per-instruction transfer function over an
arbitrary mutable state, plus join/copy/equality, and get back converged
per-block boundary states.  Both the plain liveness of
:func:`repro.dataflow.liveness.live_variables` and Fig. 4's LiveSet +
DefSet (:func:`repro.dataflow.liveness.live_definitions`) run on it.

States flow *backwards*: ``out[b]`` is the join of ``in[s]`` over
``succ(b)`` (⊥ at exit blocks); ``in[b]`` is obtained by running the
transfer function over the block's instructions in reverse.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

from repro.cfg.traversal import backward_order
from repro.ir.instructions import Instruction
from repro.ir.module import BasicBlock, Function

State = TypeVar("State")


class BlockStates(Generic[State]):
    """Converged boundary states, keyed by block identity."""

    def __init__(self) -> None:
        self._in: dict[int, State] = {}
        self._out: dict[int, State] = {}

    def in_state(self, block: BasicBlock) -> State:
        return self._in[id(block)]

    def out_state(self, block: BasicBlock) -> State:
        return self._out[id(block)]

    def set_in(self, block: BasicBlock, state: State) -> None:
        self._in[id(block)] = state

    def set_out(self, block: BasicBlock, state: State) -> None:
        self._out[id(block)] = state


class BackwardSolver(Generic[State]):
    """Iterates a backward analysis to fixpoint.

    Parameters
    ----------
    bottom:
        Factory for the ⊥ state (used at exit blocks and as the seed).
    copy:
        Deep-enough copy so that transfer can mutate safely.
    join:
        In-place binary join: ``join(accumulator, other)``.  A block's out
        state starts as a copy of its first successor's in state and joins
        the others into it, so the join needs no identity element: a
        must-intersection (DefSet) works as well as a union.
    transfer:
        ``transfer(instruction, state)`` mutates ``state`` to reflect
        executing ``instruction`` *before* the program point ``state``
        describes (i.e. it is applied while walking instructions in
        reverse).
    equals:
        State equality, used for convergence detection.
    """

    def __init__(
        self,
        bottom: Callable[[], State],
        copy: Callable[[State], State],
        join: Callable[[State, State], None],
        transfer: Callable[[Instruction, State], None],
        equals: Callable[[State, State], bool] = lambda a, b: a == b,
        max_iterations: int = 100,
    ) -> None:
        self.bottom = bottom
        self.copy = copy
        self.join = join
        self.transfer = transfer
        self.equals = equals
        self.max_iterations = max_iterations

    def solve(self, function: Function) -> BlockStates[State]:
        states: BlockStates[State] = BlockStates()
        for block in function.blocks:
            states.set_in(block, self.bottom())
            states.set_out(block, self.bottom())
        order = backward_order(function)
        for _ in range(self.max_iterations):
            changed = False
            for block in order:
                successors = block.successors
                if successors:
                    out_state = self.copy(states.in_state(successors[0]))
                    for successor in successors[1:]:
                        self.join(out_state, states.in_state(successor))
                else:
                    out_state = self.bottom()
                in_state = self.copy(out_state)
                for instruction in reversed(block.instructions):
                    self.transfer(instruction, in_state)
                if not self.equals(out_state, states.out_state(block)):
                    states.set_out(block, out_state)
                    changed = True
                if not self.equals(in_state, states.in_state(block)):
                    states.set_in(block, in_state)
                    changed = True
            if not changed:
                return states
        return states  # bounded fixpoint; states are monotone so this is safe
