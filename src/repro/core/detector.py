"""Cross-scope unused-definition detection — the paper's Fig. 4 algorithm.

The backward fixpoint carries two facts per program point, LiveSet
(may-liveness of tracked variables) and DefSet (the lines of the *next*
definitions that overwrite each variable on every successor path).  It is
solved once per function by :func:`repro.dataflow.liveness.live_definitions`
and shared through the module's :class:`~repro.pointer.value_flow.ValueFlowGraph`;
authors for the DefSet lines are resolved later by the authorship lookup.

A final pass re-walks each block from its converged out state.  A store
whose variable is not live there becomes a
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

from repro.dataflow.liveness import LiveDefState, _is_live
from repro.ir.instructions import Call, Store, StoreKind
from repro.ir.module import Function, Module
from repro.pointer.value_flow import (
    ValueFlowGraph,
    build_value_flow,
    call_result_used,
    value_source,
)
from repro.core.findings import Candidate, CandidateKind


class _Detector:
    def __init__(self, function: Function, module: Module, vfg: ValueFlowGraph):
        self.function = function
        self.module = module
        self.vfg = vfg
        self.temp_defs = vfg.temp_defs(function)
        self.temp_uses = vfg.temp_uses(function)

    # -- helpers -----------------------------------------------------------

    def _callees(self, call: Call) -> tuple[str | None, tuple[str, ...]]:
        """(primary callee, all resolved callees) of ``call``."""
        resolved = tuple(self.vfg.resolve_call(call))
        return call.callee or (resolved[0] if resolved else None), resolved

    def _var_info(self, var: str):
        return self.function.var(var)

    def _skip_var(self, var: str) -> bool:
        info = self._var_info(var)
        if info is None:
            return True
        return info.artificial or info.is_array

    # -- candidate construction ------------------------------------------------

    def _candidate_for_store(self, store: Store, state: LiveDefState) -> Candidate | None:
        tracked = store.addr.tracked_var() if store.addr is not None else None
        if tracked is None or self._skip_var(tracked):
            return None
        info = self._var_info(tracked)
        assert info is not None
        overwriters = tuple(sorted(state.overwriters(tracked)))
        # A value that came (through casts) from a call: Fig. 4's isRetVal.
        source = value_source(store.value, self.temp_defs)
        callee, resolved = self._callees(source) if isinstance(source, Call) else (None, ())
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
        if call_result_used(call, self.temp_uses):
            return None
        callee, resolved = self._callees(call)
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
        solve = self.vfg.liveness(function)
        candidates: list[Candidate] = []
        for block in function.blocks:
            state = solve.states.out_state(block).copy()
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
                state.step(instruction, function)

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
