"""Reference Andersen's solver: straightforward difference propagation.

This is the pre-interning solver retained verbatim as the semantic
oracle for :mod:`repro.pointer.andersen`.  Nodes are strings, points-to
sets are Python ``set`` objects, and the worklist propagates per-element
deltas — no node interning, no bitsets, no cycle collapsing.  It is a
test oracle with no production caller: the differential property test
(``tests/pointer/test_solver_equivalence.py``) solves randomized modules
with both solvers and requires identical fixpoints.

Keep this module boring.  Performance work belongs in
:mod:`repro.pointer.andersen`; the only changes that belong here are
semantic fixes that both solvers must share (e.g. the pointed-to set
excludes pure self-pointees, and ``pts`` hands out immutable views).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.ir.instructions import (
    AddrOf,
    Address,
    BinOp,
    Call,
    CastOp,
    DerefAddr,
    ElementAddr,
    FieldAddr,
    GlobalAddr,
    Load,
    Ret,
    Select,
    Store,
    UnOp,
    VarAddr,
)
from repro.ir.module import Function, Module
from repro.ir.values import ConstInt, ConstStr, FuncRef, ParamValue, Temp, Undef, Value
from repro.pointer import andersen as _andersen
from repro.pointer.andersen import (
    Node,
    _EMPTY_PTS,
    arg_node,
    field_child,
    func_node,
    global_node,
    loc_node,
    ret_node,
    temp_node,
)


@dataclass
class _LoadVia:
    pointer: Node
    dest: Node
    field: str | None


@dataclass
class _StoreVia:
    pointer: Node
    value: Node
    field: str | None


@dataclass
class _IndirectCall:
    pointer: Node
    call: Call
    caller: str


@dataclass
class ReferenceAndersenResult:
    """Same query surface as :class:`repro.pointer.andersen.AndersenResult`.

    ``points_to`` maps each node with a non-empty points-to set to an
    immutable ``frozenset`` of pointee nodes (the solver freezes its
    working sets once, after the fixpoint).
    """

    points_to: dict[Node, frozenset[Node]] = field(default_factory=dict)
    module: Module | None = None
    # Objects that appear in some *other* node's points-to set (a node
    # that only points to itself is not pointed to by anything else).
    _pointed: set[Node] = field(default_factory=set)
    indirect_callees: dict[int, list[str]] = field(default_factory=dict)
    converged: bool = True
    iterations: int = 0

    def pts(self, node: Node) -> frozenset[Node]:
        return self.points_to.get(node, _EMPTY_PTS)

    def pts_of_var(self, function: Function | str, var: str) -> frozenset[Node]:
        name = function if isinstance(function, str) else function.name
        return self.pts(loc_node(name, var))

    def is_pointed_to(self, function: Function | str, var: str) -> bool:
        name = function if isinstance(function, str) else function.name
        base = loc_node(name, var.split("#", 1)[0])
        exact = loc_node(name, var)
        return base in self._pointed or exact in self._pointed

    def callees_of(self, call: Call) -> list[str]:
        if call.callee is not None:
            return [call.callee]
        return self.indirect_callees.get(call.uid, [])


class _ReferenceSolver:
    """Difference-propagation solver over string-keyed dict-of-set state.

    ``delta[node]`` holds pointees added to ``pts(node)`` that have not yet
    flowed to its successors; the worklist schedules exactly the nodes with
    a pending delta.  New copy edges and complex constraints are seeded
    with the *current* points-to set at registration time, so later delta
    pops only ever handle genuinely new pointees.
    """

    def __init__(self, module: Module):
        self.module = module
        self.points_to: dict[Node, set[Node]] = {}
        self.delta: dict[Node, set[Node]] = {}
        self.copy_edges: dict[Node, set[Node]] = {}
        self.load_constraints: dict[Node, list[_LoadVia]] = {}
        self.store_constraints: dict[Node, list[_StoreVia]] = {}
        self.indirect_calls: dict[Node, list[_IndirectCall]] = {}
        self.worklist: deque[Node] = deque()
        self.enqueued: set[Node] = set()
        self.resolved_calls: set[tuple[int, str]] = set()
        self.result = ReferenceAndersenResult(module=module)

    # -- constraint construction helpers ----------------------------------

    def _pts(self, node: Node) -> set[Node]:
        return self.points_to.setdefault(node, set())

    def _schedule(self, node: Node) -> None:
        if node not in self.enqueued:
            self.enqueued.add(node)
            self.worklist.append(node)

    def _diff_into(self, node: Node, objs) -> None:
        """Merge ``objs`` into ``pts(node)``; only genuinely new pointees
        enter the delta and reschedule the node.  The pointed-to set is
        maintained here, incrementally — a pointee counts as pointed to
        unless its only pointer is itself."""
        pts = self._pts(node)
        fresh = [obj for obj in objs if obj not in pts]
        if not fresh:
            return
        pts.update(fresh)
        pointed = self.result._pointed
        for obj in fresh:
            if obj != node:
                pointed.add(obj)
        self.delta.setdefault(node, set()).update(fresh)
        self._schedule(node)

    def _add_base(self, node: Node, obj: Node) -> None:
        self._diff_into(node, (obj,))

    def _add_copy(self, source: Node, target: Node) -> None:
        edges = self.copy_edges.setdefault(source, set())
        if target not in edges:
            edges.add(target)
            pts = self.points_to.get(source)
            if pts:
                # Seed the new edge with everything already known; future
                # growth arrives through source's delta.
                self._diff_into(target, pts)

    def _value_node(self, function: Function, value: Value) -> Node | None:
        if isinstance(value, Temp):
            return temp_node(function.name, value)
        if isinstance(value, FuncRef):
            node = f"const:{func_node(value.name)}"
            self._add_base(node, func_node(value.name))
            return node
        if isinstance(value, ParamValue):
            return arg_node(function.name, value.index)
        if isinstance(value, (ConstInt, ConstStr, Undef)):
            return None
        return None

    def _addr_object(self, function: Function, addr: Address) -> Node | None:
        """The abstract object a *direct* address denotes (None if the
        address is a deref, handled via complex constraints)."""
        if isinstance(addr, VarAddr):
            return loc_node(function.name, addr.var)
        if isinstance(addr, FieldAddr):
            return loc_node(function.name, addr.tracked_var() or addr.var)
        if isinstance(addr, ElementAddr):
            return loc_node(function.name, addr.var)  # array smashing
        if isinstance(addr, GlobalAddr):
            return global_node(addr.name)
        return None

    # -- constraint extraction ---------------------------------------------

    def build(self) -> None:
        for function in self.module.functions.values():
            self._build_function(function)

    def _build_function(self, function: Function) -> None:
        name = function.name
        for instruction in function.instructions():
            if isinstance(instruction, AddrOf):
                obj = self._addr_object(function, instruction.addr)
                if obj is not None:
                    self._add_base(temp_node(name, instruction.dest), obj)
            elif isinstance(instruction, Load):
                dest = temp_node(name, instruction.dest)
                addr = instruction.addr
                obj = self._addr_object(function, addr)
                if obj is not None:
                    self._add_copy(obj, dest)
                elif isinstance(addr, DerefAddr):
                    pointer = self._value_node(function, addr.pointer)
                    if pointer is not None:
                        via = _LoadVia(pointer=pointer, dest=dest, field=addr.field)
                        self.load_constraints.setdefault(pointer, []).append(via)
                        for obj in tuple(self.points_to.get(pointer, ())):
                            self._apply_load(via, obj)
            elif isinstance(instruction, Store):
                value = self._value_node(function, instruction.value)
                addr = instruction.addr
                obj = self._addr_object(function, addr)
                if obj is not None:
                    if value is not None:
                        self._add_copy(value, obj)
                elif isinstance(addr, DerefAddr):
                    pointer = self._value_node(function, addr.pointer)
                    if pointer is not None and value is not None:
                        via = _StoreVia(pointer=pointer, value=value, field=addr.field)
                        self.store_constraints.setdefault(pointer, []).append(via)
                        for obj in tuple(self.points_to.get(pointer, ())):
                            self._apply_store(via, obj)
            elif isinstance(instruction, (BinOp, UnOp, CastOp, Select)):
                # Pointer arithmetic / casts / selects preserve pointees.
                dest = instruction.result()
                if dest is not None:
                    dest_node = temp_node(name, dest)
                    for operand in instruction.operands():
                        source = self._value_node(function, operand)
                        if source is not None:
                            self._add_copy(source, dest_node)
            elif isinstance(instruction, Call):
                self._build_call(function, instruction)
            elif isinstance(instruction, Ret):
                if instruction.value is not None:
                    source = self._value_node(function, instruction.value)
                    if source is not None:
                        self._add_copy(source, ret_node(name))

    def _wire_direct_call(self, function: Function, call: Call, callee_name: str) -> None:
        for index, argument in enumerate(call.args):
            source = self._value_node(function, argument)
            if source is not None:
                self._add_copy(source, arg_node(callee_name, index))
        if call.dest is not None:
            self._add_copy(ret_node(callee_name), temp_node(function.name, call.dest))

    def _build_call(self, function: Function, call: Call) -> None:
        if call.callee is not None:
            self._wire_direct_call(function, call, call.callee)
            return
        pointer = self._value_node(function, call.callee_value) if call.callee_value is not None else None
        if pointer is not None:
            constraint = _IndirectCall(pointer=pointer, call=call, caller=function.name)
            self.indirect_calls.setdefault(pointer, []).append(constraint)
            for obj in tuple(self.points_to.get(pointer, ())):
                self._apply_indirect(constraint, obj)

    # -- propagation ----------------------------------------------------------

    def _apply_load(self, load: _LoadVia, obj: Node) -> None:
        source = field_child(obj, load.field) if load.field else obj
        self._add_copy(source, load.dest)

    def _apply_store(self, store: _StoreVia, obj: Node) -> None:
        target = field_child(obj, store.field) if store.field else obj
        self._add_copy(store.value, target)

    def _apply_indirect(self, indirect: _IndirectCall, obj: Node) -> None:
        if not obj.startswith("func:"):
            return
        callee_name = obj[len("func:") :]
        key = (indirect.call.uid, callee_name)
        if key in self.resolved_calls:
            return
        self.resolved_calls.add(key)
        self.result.indirect_callees.setdefault(indirect.call.uid, []).append(callee_name)
        caller_fn = self.module.functions.get(indirect.caller)
        if caller_fn is not None:
            self._wire_direct_call(caller_fn, indirect.call, callee_name)

    def solve(self) -> ReferenceAndersenResult:
        self.build()
        iterations = 0
        limit = _andersen.ITERATION_LIMIT
        while self.worklist and iterations < limit:
            iterations += 1
            node = self.worklist.popleft()
            self.enqueued.discard(node)
            pending = self.delta.pop(node, None)
            if not pending:
                continue
            # Copy edges: only the delta flows (difference propagation).
            for target in tuple(self.copy_edges.get(node, ())):
                self._diff_into(target, pending)
            # Complex loads: dest ⊇ pts(o) for each *new* pointee o.
            for load in self.load_constraints.get(node, ()):  # node is the pointer
                for obj in pending:
                    self._apply_load(load, obj)
            # Complex stores: o ⊇ pts(value) for each new pointee o.
            for store in self.store_constraints.get(node, ()):
                for obj in pending:
                    self._apply_store(store, obj)
            # Indirect calls: wire params/returns of newly seen pointees.
            for indirect in self.indirect_calls.get(node, ()):  # node holds func ptrs
                for obj in pending:
                    self._apply_indirect(indirect, obj)
        self.result.converged = not self.worklist
        self.result.iterations = iterations
        # Freeze the converged sets: clients get immutable views, and the
        # result drops the (now empty-set-littered) working dict.
        self.result.points_to = {
            node: frozenset(pointees)
            for node, pointees in self.points_to.items()
            if pointees
        }
        for callees in self.result.indirect_callees.values():
            callees.sort()
        return self.result


def analyze_module_reference(module: Module) -> ReferenceAndersenResult:
    """Run the reference (string-keyed, no-collapse) solver on ``module``."""
    return _ReferenceSolver(module).solve()
