"""A concrete interpreter for the load/store IR.

Executes lowered functions on integer inputs.  Its purpose is
*validation*: semantics-preserving transformations (dead-code
elimination) and the frontend/lowering pipeline are differentially
tested against it — a random program must compute the same results
before and after parsing→printing→reparsing or DCE.

Supported: integer arithmetic/logic, locals, parameters, struct fields,
arrays, direct and indirect calls (within the module), address-of/deref
of scalar locals, control flow including loops/switch/goto.  External
callees are stubbed deterministically (a pure function of callee name
and arguments) so results are reproducible.  Unsupported constructs
raise :class:`InterpError`; runaway loops raise :class:`InterpTimeout`.

**Test oracle.**  No production code runs the interpreter.  It is how
``test_dce_preserves_semantics`` (``tests/ir/test_interp.py``) checks
the liveness facts the detector uses, via :mod:`repro.ir.dce`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.errors import AnalysisError
from repro.ir.instructions import (
    AddrOf,
    Alloca,
    BinOp,
    Br,
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


class InterpError(AnalysisError):
    """The interpreter hit an unsupported or undefined construct."""


class InterpTimeout(AnalysisError):
    """Instruction budget exhausted (runaway loop)."""


@dataclass(frozen=True)
class Ref:
    """A pointer value: a reference to a storage cell."""

    kind: str  # 'var' | 'field' | 'elem' | 'global' | 'func'
    name: str
    field: str | None = None
    index: int = 0


def _stub_external(name: str, args: list) -> int:
    """Deterministic stand-in for callees outside the module."""
    seed = zlib.crc32(name.encode())
    for argument in args:
        if isinstance(argument, int):
            seed = zlib.crc32(str(argument).encode(), seed)
    return (seed % 13) - 6


@dataclass
class _Frame:
    temps: dict[Temp, object] = field(default_factory=dict)
    # scalar vars and whole-struct cells; fields live in `fields`
    vars: dict[str, object] = field(default_factory=dict)
    fields: dict[tuple[str, str], object] = field(default_factory=dict)
    arrays: dict[str, dict[int, object]] = field(default_factory=dict)


class Interpreter:
    """Interpret functions of one module."""

    def __init__(self, module: Module, max_steps: int = 100_000):
        self.module = module
        self.max_steps = max_steps
        self.globals: dict[str, object] = {}
        self._steps = 0

    # -- value/address helpers ----------------------------------------

    def _value(self, frame: _Frame, value: Value | None):
        if value is None:
            return None
        if isinstance(value, ConstInt):
            return value.value
        if isinstance(value, ConstStr):
            return len(value.value)  # opaque but deterministic
        if isinstance(value, Temp):
            if value not in frame.temps:
                raise InterpError(f"read of undefined temp {value}")
            return frame.temps[value]
        if isinstance(value, FuncRef):
            return Ref("func", value.name)
        if isinstance(value, Undef):
            return 0
        if isinstance(value, ParamValue):
            raise InterpError("ParamValue outside parameter store")
        raise InterpError(f"unsupported value {value!r}")

    def _load(self, frame: _Frame, addr) -> object:
        if isinstance(addr, VarAddr):
            return frame.vars.get(addr.var, 0)
        if isinstance(addr, FieldAddr):
            return frame.fields.get((addr.var, addr.field), 0)
        if isinstance(addr, ElementAddr):
            index = self._value(frame, addr.index)
            return frame.arrays.setdefault(addr.var, {}).get(index, 0)
        if isinstance(addr, GlobalAddr):
            return self.globals.get(addr.name, 0)
        if isinstance(addr, DerefAddr):
            target = self._value(frame, addr.pointer)
            return self._read_ref(frame, target, addr.field)
        raise InterpError(f"unsupported load address {addr}")

    def _store(self, frame: _Frame, addr, value) -> None:
        if isinstance(addr, VarAddr):
            frame.vars[addr.var] = value
        elif isinstance(addr, FieldAddr):
            frame.fields[(addr.var, addr.field)] = value
        elif isinstance(addr, ElementAddr):
            index = self._value(frame, addr.index)
            frame.arrays.setdefault(addr.var, {})[index] = value
        elif isinstance(addr, GlobalAddr):
            self.globals[addr.name] = value
        elif isinstance(addr, DerefAddr):
            target = self._value(frame, addr.pointer)
            self._write_ref(frame, target, addr.field, value)
        else:
            raise InterpError(f"unsupported store address {addr}")

    def _read_ref(self, frame: _Frame, ref, field_name):
        if not isinstance(ref, Ref):
            raise InterpError(f"deref of non-pointer {ref!r}")
        if field_name is not None:
            if ref.kind != "var":
                raise InterpError("field deref of non-struct ref")
            return frame.fields.get((ref.name, field_name), 0)
        if ref.kind == "var":
            return frame.vars.get(ref.name, 0)
        if ref.kind == "field":
            return frame.fields.get((ref.name, ref.field or ""), 0)
        if ref.kind == "elem":
            return frame.arrays.setdefault(ref.name, {}).get(ref.index, 0)
        if ref.kind == "global":
            return self.globals.get(ref.name, 0)
        raise InterpError(f"cannot read through {ref}")

    def _write_ref(self, frame: _Frame, ref, field_name, value) -> None:
        if not isinstance(ref, Ref):
            raise InterpError(f"deref-store through non-pointer {ref!r}")
        if field_name is not None:
            frame.fields[(ref.name, field_name)] = value
        elif ref.kind == "var":
            frame.vars[ref.name] = value
        elif ref.kind == "field":
            frame.fields[(ref.name, ref.field or "")] = value
        elif ref.kind == "elem":
            frame.arrays.setdefault(ref.name, {})[ref.index] = value
        elif ref.kind == "global":
            self.globals[ref.name] = value
        else:
            raise InterpError(f"cannot write through {ref}")

    def _addr_ref(self, addr) -> Ref:
        if isinstance(addr, VarAddr):
            return Ref("var", addr.var)
        if isinstance(addr, FieldAddr):
            return Ref("field", addr.var, field=addr.field)
        if isinstance(addr, GlobalAddr):
            return Ref("global", addr.name)
        raise InterpError(f"cannot take address of {addr}")

    # -- arithmetic -------------------------------------------------------

    def _binop(self, op: str, lhs, rhs):
        if isinstance(lhs, Ref) or isinstance(rhs, Ref):
            if op in ("==", "!="):
                equal = lhs == rhs
                return int(equal if op == "==" else not equal)
            raise InterpError(f"pointer arithmetic {op!r} unsupported")
        table = {
            "+": lambda: lhs + rhs,
            "-": lambda: lhs - rhs,
            "*": lambda: lhs * rhs,
            "/": lambda: int(lhs / rhs) if rhs else 0,
            "%": lambda: lhs - int(lhs / rhs) * rhs if rhs else 0,
            "==": lambda: int(lhs == rhs),
            "!=": lambda: int(lhs != rhs),
            "<": lambda: int(lhs < rhs),
            ">": lambda: int(lhs > rhs),
            "<=": lambda: int(lhs <= rhs),
            ">=": lambda: int(lhs >= rhs),
            "&&": lambda: int(bool(lhs) and bool(rhs)),
            "||": lambda: int(bool(lhs) or bool(rhs)),
            "&": lambda: lhs & rhs,
            "|": lambda: lhs | rhs,
            "^": lambda: lhs ^ rhs,
            "<<": lambda: lhs << (rhs & 31),
            ">>": lambda: lhs >> (rhs & 31),
        }
        if op not in table:
            raise InterpError(f"unsupported binary op {op!r}")
        return table[op]()

    def _unop(self, op: str, operand):
        if op == "-":
            return -operand
        if op == "!":
            return int(not operand)
        if op == "~":
            return ~operand
        raise InterpError(f"unsupported unary op {op!r}")

    # -- execution ---------------------------------------------------------

    def call(self, name: str, args: list | None = None):
        """Call a function by name with integer arguments."""
        args = list(args or [])
        function = self.module.functions.get(name)
        if function is None:
            return _stub_external(name, args)
        return self._run(function, args)

    def _run(self, function: Function, args: list):
        frame = _Frame()
        arg_by_index = {index: value for index, value in enumerate(args)}
        blocks = {block.label: block for block in function.blocks}
        block = function.entry
        while True:
            next_label: str | None = None
            for instruction in block.instructions:
                self._steps += 1
                if self._steps > self.max_steps:
                    raise InterpTimeout(f"{function.name}: step budget exhausted")
                if isinstance(instruction, Alloca):
                    continue
                if isinstance(instruction, Store):
                    if isinstance(instruction.value, ParamValue):
                        value = arg_by_index.get(instruction.value.index, 0)
                    else:
                        value = self._value(frame, instruction.value)
                    self._store(frame, instruction.addr, value)
                elif isinstance(instruction, Load):
                    frame.temps[instruction.dest] = self._load(frame, instruction.addr)
                elif isinstance(instruction, BinOp):
                    frame.temps[instruction.dest] = self._binop(
                        instruction.op,
                        self._value(frame, instruction.lhs),
                        self._value(frame, instruction.rhs),
                    )
                elif isinstance(instruction, UnOp):
                    frame.temps[instruction.dest] = self._unop(
                        instruction.op, self._value(frame, instruction.operand)
                    )
                elif isinstance(instruction, Select):
                    cond = self._value(frame, instruction.cond)
                    frame.temps[instruction.dest] = self._value(
                        frame, instruction.then_value if cond else instruction.else_value
                    )
                elif isinstance(instruction, CastOp):
                    frame.temps[instruction.dest] = self._value(frame, instruction.value)
                elif isinstance(instruction, AddrOf):
                    frame.temps[instruction.dest] = self._addr_ref(instruction.addr)
                elif isinstance(instruction, Call):
                    callee = instruction.callee
                    if callee is None:
                        target = self._value(frame, instruction.callee_value)
                        if not isinstance(target, Ref) or target.kind != "func":
                            raise InterpError("indirect call through non-function value")
                        callee = target.name
                    call_args = [self._value(frame, a) for a in instruction.args]
                    result = self.call(callee, call_args)
                    if instruction.dest is not None:
                        frame.temps[instruction.dest] = result
                elif isinstance(instruction, Ret):
                    return self._value(frame, instruction.value)
                elif isinstance(instruction, Br):
                    if instruction.cond is None:
                        next_label = instruction.then_label
                    else:
                        taken = bool(self._value(frame, instruction.cond))
                        next_label = instruction.then_label if taken else instruction.else_label
                    break
                else:
                    raise InterpError(f"unsupported instruction {instruction}")
            if next_label is None:
                raise InterpError(f"{function.name}: block fell through without terminator")
            block = blocks[next_label]


def run_function(module: Module, name: str, args: list | None = None, max_steps: int = 100_000):
    """Convenience: interpret ``module.functions[name]`` on ``args``."""
    return Interpreter(module, max_steps=max_steps).call(name, args)
