"""Cross-scope unused-definition detection — the paper's Fig. 4 algorithm.

The backward fixpoint carries two facts per program point:

* **LiveSet** — may-liveness of tracked variables (as in
  :mod:`repro.dataflow.liveness`);
* **DefSet** — for each variable, the lines of the *next* definitions that
  overwrite it, tracked as a **must** fact: a variable is present only if
  every successor path overwrites it before function exit.  This is what
  lets the detector say "overwritten by other developers on *all*
  successor paths" (§3.1 scenario 3) — authors for those lines are
  resolved later by the authorship lookup.

When the final pass reaches a store whose variable is not live, it emits a
:class:`~repro.core.findings.Candidate` whose kind encodes which scenario
applies:

* value came from a call               → scenario 1 (return authors checked)
* the store is the parameter's entry
  store                                → scenario 2 (call-site authors checked)
* DefSet has overwriters               → scenario 3 (overwriter authors checked)
* none of the above                    → plain dead store (never cross-scope)

Discarded call results (``f();`` or results only consumed by ``(void)``
casts) are emitted as IGNORED_RETURN candidates directly from the call
instruction — the "implicit definition ``tmp = printf()``" of §5.4.

Finally, the alias check (§4.1) drops candidates whose variable is
referenced by pointers: those may be used through indirect reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.traversal import backward_order
from repro.dataflow.liveness import _is_live, _kill
from repro.ir.instructions import Call, CastOp, Instruction, Load, Store, StoreKind
from repro.ir.module import Function, Module
from repro.ir.values import Temp
from repro.pointer.value_flow import ValueFlowGraph, build_value_flow
from repro.core.findings import Candidate, CandidateKind

_MAX_ITERATIONS = 100


@dataclass
class _State:
    """LiveSet + DefSet at one program point."""

    live: set[str]
    defs: dict[str, frozenset[int]]  # must-overwrite lines per var

    @classmethod
    def bottom(cls) -> "_State":
        return cls(live=set(), defs={})

    def copy(self) -> "_State":
        return _State(live=set(self.live), defs=dict(self.defs))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _State)
            and self.live == other.live
            and self.defs == other.defs
        )


def _join_states(states: list[_State]) -> _State:
    """May-union for LiveSet; must-intersection (with line union) for DefSet."""
    if not states:
        return _State.bottom()
    live: set[str] = set()
    for state in states:
        live |= state.live
    common_vars = set(states[0].defs)
    for state in states[1:]:
        common_vars &= set(state.defs)
    defs: dict[str, frozenset[int]] = {}
    for var in common_vars:
        lines: frozenset[int] = frozenset()
        for state in states:
            lines |= state.defs[var]
        defs[var] = lines
    return _State(live=live, defs=defs)


def _record_def(var: str, line: int, state: _State, function: Function) -> None:
    state.defs[var] = frozenset((line,))
    info = function.variables.get(var)
    if info is not None and info.is_struct:
        prefix = var + "#"
        for name in list(state.defs):
            if name.startswith(prefix):
                state.defs[name] = frozenset((line,))


def _overwriters_of(var: str, state: _State) -> frozenset[int]:
    """Must-overwrite lines for ``var`` (falling back to the base struct
    for field pseudo-variables)."""
    if var in state.defs:
        return state.defs[var]
    if "#" in var:
        return state.defs.get(var.split("#", 1)[0], frozenset())
    return frozenset()


def _transfer(instruction: Instruction, state: _State, function: Function) -> None:
    """Backward transfer (no candidate emission — used during fixpoint)."""
    if isinstance(instruction, Store):
        tracked = instruction.addr.tracked_var() if instruction.addr is not None else None
        if tracked is not None:
            _kill(tracked, state.live, function)
            _record_def(tracked, instruction.line, state, function)
    elif isinstance(instruction, Load):
        addr = instruction.addr
        tracked = addr.tracked_var() if addr is not None else None
        if tracked is not None:
            state.live.add(tracked)
        else:
            base = addr.base_var() if addr is not None else None
            if base is not None:
                state.live.add(base)


class _Detector:
    def __init__(self, function: Function, module: Module, vfg: ValueFlowGraph):
        self.function = function
        self.module = module
        self.vfg = vfg
        self.temp_defs = function.temp_def_map()
        self.temp_uses = function.temp_use_map()

    # -- helpers -----------------------------------------------------------

    def _value_callee(self, value) -> tuple[str | None, tuple[str, ...]]:
        """If ``value`` is (transitively through a cast) a call result,
        return (primary callee, all resolved callees)."""
        seen = 0
        while isinstance(value, Temp) and seen < 8:
            seen += 1
            defining = self.temp_defs.get(value)
            if isinstance(defining, Call):
                resolved = tuple(self.vfg.resolve_call(defining))
                primary = defining.callee or (resolved[0] if resolved else None)
                return primary, resolved
            if isinstance(defining, CastOp):
                value = defining.value
                continue
            return None, ()
        return None, ()

    def _var_info(self, var: str):
        return self.function.var(var)

    def _skip_var(self, var: str) -> bool:
        info = self._var_info(var)
        if info is None:
            return True
        return info.artificial or info.is_array

    # -- candidate construction ------------------------------------------------

    def _candidate_for_store(self, store: Store, state: _State) -> Candidate | None:
        tracked = store.addr.tracked_var() if store.addr is not None else None
        if tracked is None or self._skip_var(tracked):
            return None
        info = self._var_info(tracked)
        assert info is not None
        overwriters = tuple(sorted(_overwriters_of(tracked, state)))
        callee, resolved = self._value_callee(store.value)
        if store.kind is StoreKind.PARAM_INIT:
            kind = CandidateKind.OVERWRITTEN_ARG if overwriters else CandidateKind.UNUSED_PARAM
        elif overwriters:
            kind = CandidateKind.OVERWRITTEN_DEF
        elif callee is not None:
            kind = CandidateKind.IGNORED_RETURN
        else:
            kind = CandidateKind.DEAD_STORE
        return Candidate(
            file=self.function.filename,
            function=self.function.name,
            var=tracked,
            line=store.line,
            kind=kind,
            store_kind=store.kind,
            callee=callee,
            overwrite_lines=overwriters,
            is_field="#" in tracked,
            param_index=info.param_index if store.kind is StoreKind.PARAM_INIT else -1,
            increment_delta=store.increment_delta,
            same_delta_stores=self._same_delta_stores(tracked, store.increment_delta),
            void_cast=False,
            var_attrs=info.attrs,
            decl_line=info.decl_line,
            resolved_callees=resolved,
        )

    def _same_delta_stores(self, var: str, delta: int | None) -> int:
        if delta is None:
            return 0
        return sum(
            1
            for instruction in self.function.instructions()
            if isinstance(instruction, Store)
            and instruction.addr is not None
            and instruction.addr.tracked_var() == var
            and instruction.increment_delta == delta
        )

    def _candidate_for_call(self, call: Call) -> Candidate | None:
        if call.dest is None:
            return None
        real_uses = [
            use
            for use in self.temp_uses.get(call.dest, [])
            if not (isinstance(use, CastOp) and use.to_void)
        ]
        if real_uses:
            return None
        resolved = tuple(self.vfg.resolve_call(call))
        callee = call.callee or (resolved[0] if resolved else None)
        return Candidate(
            file=self.function.filename,
            function=self.function.name,
            var=callee or "<indirect>",
            line=call.line,
            kind=CandidateKind.IGNORED_RETURN,
            store_kind=None,
            callee=callee,
            void_cast=call.void_cast,
            resolved_callees=resolved,
        )

    # -- driver ------------------------------------------------------------

    def run(self) -> list[Candidate]:
        function = self.function
        order = backward_order(function)
        in_states: dict[int, _State] = {id(b): _State.bottom() for b in function.blocks}
        out_states: dict[int, _State] = {id(b): _State.bottom() for b in function.blocks}
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for block in order:
                out_state = _join_states([in_states[id(s)] for s in block.successors])
                state = out_state.copy()
                for instruction in reversed(block.instructions):
                    _transfer(instruction, state, function)
                if out_state != out_states[id(block)]:
                    out_states[id(block)] = out_state
                    changed = True
                if state != in_states[id(block)]:
                    in_states[id(block)] = state
                    changed = True
            if not changed:
                break

        candidates: list[Candidate] = []
        for block in function.blocks:
            state = _join_states([in_states[id(s)] for s in block.successors]).copy()
            for instruction in reversed(block.instructions):
                if isinstance(instruction, Store):
                    tracked = (
                        instruction.addr.tracked_var() if instruction.addr is not None else None
                    )
                    if tracked is not None and not _is_live(tracked, state.live):
                        candidate = self._candidate_for_store(instruction, state)
                        if candidate is not None:
                            candidates.append(candidate)
                elif isinstance(instruction, Call):
                    candidate = self._candidate_for_call(instruction)
                    if candidate is not None:
                        candidates.append(candidate)
                _transfer(instruction, state, function)

        # Alias check (§4.1): a variable referenced by pointers may be used
        # through indirect reads — drop its candidates.  The VFG memoizes
        # the verdict per (function, var) across repeated candidates.
        aliased = self.vfg.may_be_used_indirectly
        filtered = [
            candidate
            for candidate in candidates
            if candidate.kind is CandidateKind.IGNORED_RETURN and candidate.store_kind is None
            or not aliased(function, candidate.var)
        ]
        filtered.sort(key=lambda candidate: (candidate.line, candidate.var, candidate.kind.value))
        return filtered


def detect_function(function: Function, module: Module, vfg: ValueFlowGraph) -> list[Candidate]:
    """Detect unused-definition candidates in one function."""
    return _Detector(function, module, vfg).run()


def detect_module(module: Module, vfg: ValueFlowGraph | None = None) -> list[Candidate]:
    """Detect candidates in every function of a module."""
    if vfg is None:
        vfg = build_value_flow(module)
    candidates: list[Candidate] = []
    for name in sorted(module.functions):
        candidates.extend(detect_function(module.functions[name], module, vfg))
    return candidates
