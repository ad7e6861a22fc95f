"""Functions, basic blocks and modules for the load/store IR."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.frontend import ast_nodes as ast
from repro.frontend.preprocessor import CondRegion
from repro.ir.instructions import Br, Instruction, Ret, Store
from repro.ir.values import Temp


@dataclass(eq=False)
class BasicBlock:
    """A straight-line instruction sequence ending in a terminator."""

    label: str
    instructions: list[Instruction] = field(default_factory=list)
    successors: list["BasicBlock"] = field(default_factory=list)
    predecessors: list["BasicBlock"] = field(default_factory=list)

    def append(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)

    @property
    def terminator(self) -> Instruction | None:
        if self.instructions and isinstance(self.instructions[-1], (Br, Ret)):
            return self.instructions[-1]
        return None

    def is_terminated(self) -> bool:
        return self.terminator is not None

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"  {instruction}" for instruction in self.instructions)
        return "\n".join(lines)

    def __hash__(self) -> int:
        return id(self)


@dataclass
class VarInfo:
    """Metadata for a tracked local variable or parameter."""

    name: str
    type_name: str
    decl_line: int
    attrs: tuple[str, ...] = ()
    is_param: bool = False
    param_index: int = -1
    is_struct: bool = False
    is_array: bool = False
    is_pointer: bool = False
    artificial: bool = False  # compiler-introduced; never reported


@dataclass(eq=False)
class Function:
    """An IR function: an ordered list of basic blocks plus a symbol table
    of tracked locals."""

    name: str
    filename: str
    return_type: str
    line: int
    end_line: int
    params: list[VarInfo] = field(default_factory=list)
    blocks: list[BasicBlock] = field(default_factory=list)
    variables: dict[str, VarInfo] = field(default_factory=dict)
    return_lines: list[int] = field(default_factory=list)

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def block(self, label: str) -> BasicBlock:
        for basic_block in self.blocks:
            if basic_block.label == label:
                return basic_block
        raise KeyError(label)

    def instructions(self):
        """Iterate all instructions in block order."""
        for basic_block in self.blocks:
            yield from basic_block.instructions

    def var(self, name: str) -> VarInfo | None:
        """Look up a tracked variable; field pseudo-vars (``s#f``) resolve
        to their base struct's info."""
        base = name.split("#", 1)[0]
        return self.variables.get(base)

    def stores(self) -> list[Store]:
        return [i for i in self.instructions() if isinstance(i, Store)]

    def temp_def_map(self) -> dict[Temp, Instruction]:
        """Map each temp to its defining instruction (temps are single-def)."""
        defs: dict[Temp, Instruction] = {}
        for instruction in self.instructions():
            result = instruction.result()
            if result is not None:
                defs[result] = instruction
        return defs

    def temp_use_map(self) -> dict[Temp, list[Instruction]]:
        """Map each temp to the instructions that read it."""
        uses: dict[Temp, list[Instruction]] = {}
        for instruction in self.instructions():
            for operand in instruction.operands():
                if isinstance(operand, Temp):
                    uses.setdefault(operand, []).append(instruction)
        return uses

    def returns_void(self) -> bool:
        return self.return_type == "void"

    def __str__(self) -> str:
        header = f"define {self.return_type} @{self.name}({', '.join(p.name for p in self.params)})"
        body = "\n".join(str(block) for block in self.blocks)
        return f"{header} {{\n{body}\n}}"

    def __hash__(self) -> int:
        return id(self)


@dataclass
class Module:
    """All IR for one source file, plus the AST unit the later phases
    need (for prototypes/struct layouts) and the raw text's ``#if``
    regions (for the config-dependency pruner).  The source text itself
    lives in :class:`repro.core.project.Project`."""

    filename: str
    functions: dict[str, Function] = field(default_factory=dict)
    unit: ast.TranslationUnit | None = None
    # Names of all functions known in this unit (defined or prototyped),
    # with their return types; externals default to returning int.
    signatures: dict[str, str] = field(default_factory=dict)
    # Every conditional arm of the raw text, enabled or not (what
    # :func:`repro.ir.builder.lower_source`'s preprocessing pass found).
    regions: list[CondRegion] = field(default_factory=list)

    def function(self, name: str) -> Function | None:
        return self.functions.get(name)

    def callee_return_type(self, name: str) -> str:
        return self.signatures.get(name, "int")

    def __iter__(self):
        return iter(self.functions.values())
