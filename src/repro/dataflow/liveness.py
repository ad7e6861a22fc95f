"""Flow-sensitive liveness of named variables (paper §2.1, §4.1).

Variables are the function's tracked locals/parameters plus field
pseudo-variables ``s#f``.  The gen/kill rules over the load/store IR:

* ``load &v``           → gen ``v``
* ``load &s.f``         → gen ``s#f``
* ``load &arr[i]``      → gen ``arr`` (reading any element keeps the
  array's definitions alive; arrays are not unused-def candidates anyway)
* ``store -> &v``       → kill ``v`` (and all ``v#*`` if ``v`` is a struct:
  overwriting the aggregate overwrites every field)
* ``store -> &s.f``     → kill ``s#f``
* loads of a whole struct ``s`` (e.g. passing it by value) gen ``s``; a
  field's liveness check must therefore consult both ``s#f`` and ``s``.

Address-of, deref and global accesses have no direct gen/kill — indirect
uses are handled separately by the alias check (paper §4.1 "Pointer and
Alias"), not by weakening liveness.

:func:`unused_definitions` is the *plain* detector (no authorship, no
pruning).  It is what the paper calls "original liveness analysis" in the
§3.1 preliminary experiment.  :func:`live_definitions` is the solve the
cross-scope detector in :mod:`repro.core.detector` runs on: the same
LiveSet, plus Fig. 4's DefSet.  :func:`live_variables`, the plain
detector's solver, is its independent check
(``tests/dataflow/test_live_definitions.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataflow.framework import BackwardSolver, BlockStates
from repro.ir.instructions import (
    Alloca,
    ElementAddr,
    FieldAddr,
    Instruction,
    Load,
    Store,
    StoreKind,
    VarAddr,
)
from repro.ir.module import Function


def gen_vars(instruction: Instruction) -> list[str]:
    """Tracked variables read by ``instruction``."""
    if isinstance(instruction, Load):
        addr = instruction.addr
        if isinstance(addr, VarAddr):
            return [addr.var]
        if isinstance(addr, FieldAddr):
            tracked = addr.tracked_var()
            return [tracked] if tracked else []
        if isinstance(addr, ElementAddr):
            return [addr.var]
    return []


def kill_var(instruction: Instruction) -> str | None:
    """Tracked variable fully overwritten by ``instruction``, if any."""
    if isinstance(instruction, Store):
        addr = instruction.addr
        if isinstance(addr, (VarAddr, FieldAddr)):
            return addr.tracked_var()
    return None


def _is_live(var: str, live: set[str]) -> bool:
    """Membership that lets whole-struct uses keep fields alive."""
    if var in live:
        return True
    if "#" in var and var.split("#", 1)[0] in live:
        return True
    return False


def _kill(var: str, live: set[str], function: Function) -> None:
    live.discard(var)
    info = function.variables.get(var)
    if info is not None and info.is_struct:
        prefix = var + "#"
        for name in [v for v in live if v.startswith(prefix)]:
            live.discard(name)


def _step_live(instruction: Instruction, live: set[str], function: Function) -> str | None:
    """Backward liveness transfer of one instruction; returns the variable
    it overwrote, if any."""
    killed = kill_var(instruction)
    if killed is not None:
        _kill(killed, live, function)
    for var in gen_vars(instruction):
        live.add(var)
    return killed


@dataclass
class LivenessResult:
    """Converged per-block live sets plus the function analysed."""

    function: Function
    states: BlockStates[set[str]]

    def live_in(self, block) -> set[str]:
        return self.states.in_state(block)

    def live_out(self, block) -> set[str]:
        return self.states.out_state(block)

    def live_at_entry(self) -> set[str]:
        """Liveness at the start of the function *body* — i.e. just after
        the implicit parameter-initialisation stores.  A parameter in this
        set has its incoming value read somewhere; one absent is either
        never read or overwritten on every path first (the paper's
        "assigned but unused argument").
        """
        entry = self.function.entry
        live = set(self.live_out(entry))
        body_start = 0
        for index, instruction in enumerate(entry.instructions):
            if isinstance(instruction, Store) and instruction.kind is StoreKind.PARAM_INIT:
                body_start = index + 1
            elif not isinstance(instruction, Alloca):
                break
        for instruction in reversed(entry.instructions[body_start:]):
            _step_live(instruction, live, self.function)
        return live


def live_variables(function: Function) -> LivenessResult:
    """Solve liveness to fixpoint for ``function``."""
    solver: BackwardSolver[set[str]] = BackwardSolver(
        bottom=set,
        copy=set,
        join=lambda acc, other: acc.update(other),
        transfer=lambda instruction, live: _step_live(instruction, live, function),
    )
    return LivenessResult(function=function, states=solver.solve(function))


@dataclass
class LiveDefState:
    """Fig. 4's LiveSet + DefSet at one program point.

    ``defs`` maps a variable to the lines of the *next* definitions that
    overwrite it, as a **must** fact: a variable is present only if every
    successor path overwrites it before function exit.  This is what lets
    the detector say "overwritten by other developers on *all* successor
    paths" (§3.1 scenario 3).
    """

    live: set[str] = field(default_factory=set)
    defs: dict[str, frozenset[int]] = field(default_factory=dict)

    def copy(self) -> "LiveDefState":
        return LiveDefState(set(self.live), dict(self.defs))

    def join(self, other: "LiveDefState") -> None:
        """May-union for LiveSet; must-intersection (with line union) for
        DefSet."""
        self.live |= other.live
        theirs = other.defs
        self.defs = {var: lines | theirs[var] for var, lines in self.defs.items() if var in theirs}

    def overwriters(self, var: str) -> frozenset[int]:
        """Must-overwrite lines for ``var`` (falling back to the base
        struct for field pseudo-variables)."""
        if var in self.defs:
            return self.defs[var]
        if "#" in var:
            return self.defs.get(var.split("#", 1)[0], frozenset())
        return frozenset()

    def step(self, instruction: Instruction, function: Function) -> None:
        """Backward transfer: liveness as :func:`live_variables`, and a
        store records its line as the next definition of its variable
        (and of every tracked field, for a whole-struct store)."""
        killed = _step_live(instruction, self.live, function)
        if killed is None:
            return
        line = frozenset((instruction.line,))
        self.defs[killed] = line
        info = function.variables.get(killed)
        if info is not None and info.is_struct:
            prefix = killed + "#"
            for name in [name for name in self.defs if name.startswith(prefix)]:
                self.defs[name] = line


@dataclass
class LiveDefResult(LivenessResult):
    """Converged LiveSet + DefSet per block; the live sets read as
    :class:`LivenessResult`'s do."""

    states: BlockStates[LiveDefState]

    def live_in(self, block) -> set[str]:
        return self.states.in_state(block).live

    def live_out(self, block) -> set[str]:
        return self.states.out_state(block).live


def live_definitions(function: Function) -> LiveDefResult:
    """Solve Fig. 4's LiveSet + DefSet to fixpoint for ``function``."""
    solver: BackwardSolver[LiveDefState] = BackwardSolver(
        bottom=LiveDefState,
        copy=LiveDefState.copy,
        join=LiveDefState.join,
        transfer=lambda instruction, state: state.step(instruction, function),
    )
    return LiveDefResult(function=function, states=solver.solve(function))


@dataclass(frozen=True)
class PlainUnusedDef:
    """An unused definition found by plain liveness (no authorship)."""

    function: str
    var: str
    line: int
    kind: StoreKind
    is_param: bool


def unused_definitions(
    function: Function,
    include_decl_inits: bool = True,
    include_params: bool = True,
) -> list[PlainUnusedDef]:
    """All stores to tracked variables whose value is never read afterwards,
    plus parameters whose incoming value is never read.

    This is deliberately *noisy* — it is the raw candidate stream before
    cross-scope filtering and pruning, matching the paper's observation
    that plain detection reports far too much to act on.
    """
    result = live_variables(function)
    findings: list[PlainUnusedDef] = []
    for block in function.blocks:
        live = set(result.live_out(block))
        for instruction in reversed(block.instructions):
            if isinstance(instruction, Store):
                tracked = instruction.addr.tracked_var() if instruction.addr is not None else None
                if tracked is not None:
                    info = function.var(tracked)
                    artificial = info.artificial if info is not None else False
                    if not _is_live(tracked, live) and not artificial:
                        if instruction.kind is StoreKind.PARAM_INIT:
                            if include_params:
                                findings.append(
                                    PlainUnusedDef(
                                        function=function.name,
                                        var=tracked,
                                        line=instruction.line,
                                        kind=instruction.kind,
                                        is_param=True,
                                    )
                                )
                        elif include_decl_inits or instruction.kind is not StoreKind.DECL_INIT:
                            findings.append(
                                PlainUnusedDef(
                                    function=function.name,
                                    var=tracked,
                                    line=instruction.line,
                                    kind=instruction.kind,
                                    is_param=False,
                                )
                            )
            _step_live(instruction, live, function)
    findings.sort(key=lambda finding: (finding.line, finding.var))
    return findings
