"""AST → load/store IR lowering.

The lowering mirrors what clang emits at ``-O0 -fno-inline``, which is the
compilation mode the paper uses (§8.1.2) precisely because it keeps every
source-level definition visible as a ``store``:

* every local variable and parameter gets an ``alloca``; parameters are
  initialised by an implicit entry store (``StoreKind.PARAM_INIT``) — this
  is what makes "assigned but unused argument" a detectable definition;
* reads of named variables become ``load``; writes become ``store``;
* direct struct-field accesses (``s.f``) address the pseudo-variable
  ``s#f`` (paper §4.2.1's field-sensitive naming);
* ``&&``/``||`` and ``?:`` are lowered eagerly (both operands evaluated,
  ``Select`` for the ternary).  May-liveness takes the union over paths,
  so eager lowering does not change which definitions are unused; it only
  simplifies the CFG;
* ``sizeof`` does not evaluate its operand (C semantics), so it creates
  no uses.

Increment provenance (``Store.increment_delta``) is recorded whenever the
stored value is ``old(var) ± constant`` — from ``++``/``--``, compound
``+=``/``-=`` with constant, or a plain ``v = v + c`` assignment.  The
cursor pruner consumes this.
"""

from __future__ import annotations

from repro import obs
from repro.errors import LoweringError
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse_source
from repro.frontend.preprocessor import PreprocessedSource
from repro.ir.instructions import (
    Address,
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
    StoreKind,
    UnOp,
    VarAddr,
)
from repro.ir.module import BasicBlock, Function, Module, VarInfo
from repro.ir.values import ConstInt, ConstStr, FuncRef, ParamValue, Temp, Undef, Value

_CHAR_ESCAPES = {
    r"\0": 0,
    r"\n": 10,
    r"\t": 9,
    r"\r": 13,
    r"\\": 92,
    r"\'": 39,
    r"\"": 34,
}


def _char_value(text: str) -> int:
    if text in _CHAR_ESCAPES:
        return _CHAR_ESCAPES[text]
    return ord(text[0]) if text else 0


class _TypeTable:
    """Resolves surface types to the coarse properties VarInfo records."""

    def __init__(self, unit: ast.TranslationUnit):
        self.typedefs = {td.name: td.aliased for td in unit.typedefs}
        self.structs = {st.name for st in unit.structs}

    def resolve(self, type_: ast.Type, depth: int = 0) -> ast.Type:
        if depth > 16:
            return type_
        if isinstance(type_, ast.NamedType) and type_.name in self.typedefs:
            return self.resolve(self.typedefs[type_.name], depth + 1)
        return type_

    def info_flags(self, type_: ast.Type) -> tuple[bool, bool, bool]:
        """(is_struct, is_array, is_pointer) after typedef resolution."""
        resolved = self.resolve(type_)
        return (
            isinstance(resolved, ast.StructType),
            isinstance(resolved, ast.ArrayType),
            isinstance(resolved, ast.PointerType),
        )


class _FunctionBuilder:
    """Lowers one FunctionDef into a Function."""

    def __init__(self, fn_def: ast.FunctionDef, module: Module, types: _TypeTable):
        self.fn_def = fn_def
        self.module = module
        self.types = types
        self.function = Function(
            name=fn_def.name,
            filename=module.filename,
            return_type=str(fn_def.return_type),
            line=fn_def.line,
            end_line=fn_def.end_line,
        )
        self.temp_counter = 0
        self.block_counter = 0
        self.current = self._new_block("entry")
        # break binds to the nearest enclosing loop OR switch; continue
        # only to loops — hence two separate target stacks.
        self.break_stack: list[BasicBlock] = []
        self.continue_stack: list[BasicBlock] = []
        self.label_blocks: dict[str, BasicBlock] = {}
        self.temp_defs: dict[Temp, object] = {}

    # -- infrastructure ------------------------------------------------

    def _new_block(self, hint: str = "bb") -> BasicBlock:
        label = f"{hint}{self.block_counter}" if hint != "entry" else "entry"
        self.block_counter += 1
        block = BasicBlock(label=label)
        self.function.blocks.append(block)
        return block

    def _new_temp(self) -> Temp:
        self.temp_counter += 1
        return Temp(self.temp_counter)

    def _emit(self, instruction) -> None:
        if self.current.is_terminated():
            # Unreachable code after return/break/goto still gets lowered
            # (the paper analyses all functions, including dead arms).
            self.current = self._new_block("dead")
        self.current.append(instruction)
        result = instruction.result()
        if result is not None:
            self.temp_defs[result] = instruction

    def _branch_to(self, target: BasicBlock, line: int) -> None:
        if not self.current.is_terminated():
            self._emit(Br(line=line, then_label=target.label))

    def _error(self, message: str, line: int) -> LoweringError:
        return LoweringError(message, self.module.filename, line)

    # -- variables -------------------------------------------------------

    def _declare(self, name: str, type_: ast.Type, line: int, attrs: tuple[str, ...], is_param: bool, param_index: int = -1) -> None:
        is_struct, is_array, is_pointer = self.types.info_flags(type_)
        info = VarInfo(
            name=name,
            type_name=str(type_),
            decl_line=line,
            attrs=attrs,
            is_param=is_param,
            param_index=param_index,
            is_struct=is_struct,
            is_array=is_array,
            is_pointer=is_pointer,
        )
        self.function.variables[name] = info
        self._emit(Alloca(line=line, var=name, type_name=info.type_name, is_param=is_param))
        if is_param:
            self.function.params.append(info)
            self._emit(
                Store(
                    line=line,
                    addr=VarAddr(name),
                    value=ParamValue(name, param_index),
                    kind=StoreKind.PARAM_INIT,
                )
            )

    def _is_local(self, name: str) -> bool:
        return name in self.function.variables

    def _is_function_name(self, name: str) -> bool:
        return name in self.module.signatures

    # -- lvalues -----------------------------------------------------------

    def _member_path(self, expr: ast.Member) -> tuple[ast.Expr, str] | None:
        """Flatten a chain of non-arrow members into (base expr, dotted path)."""
        parts: list[str] = []
        node: ast.Expr = expr
        while isinstance(node, ast.Member) and not node.arrow:
            parts.append(node.field_name)
            node = node.base
        return node, ".".join(reversed(parts))

    def lower_lvalue(self, expr: ast.Expr) -> Address:
        if isinstance(expr, ast.Identifier):
            if self._is_local(expr.name):
                return VarAddr(expr.name)
            return GlobalAddr(expr.name)
        if isinstance(expr, ast.Member):
            if not expr.arrow:
                base, path = self._member_path(expr)
                if isinstance(base, ast.Identifier) and self._is_local(base.name):
                    info = self.function.variables[base.name]
                    if info.is_struct:
                        return FieldAddr(base.name, path)
                # Fall through: member of a non-struct-local base — go
                # through its value as an indirect access.
                base_value = self.lower_expr(base)
                return DerefAddr(base_value, path)
            pointer = self.lower_expr(expr.base)
            return DerefAddr(pointer, expr.field_name)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            pointer = self.lower_expr(expr.operand)
            return DerefAddr(pointer)
        if isinstance(expr, ast.Index):
            base = expr.base
            index_value = self.lower_expr(expr.index)
            if isinstance(base, ast.Identifier) and self._is_local(base.name):
                info = self.function.variables[base.name]
                if info.is_array:
                    return ElementAddr(base.name, index_value)
                # pointer[i] — load the pointer, offset it, deref
                pointer = self.lower_expr(base)
                offset = self._new_temp()
                self._emit(BinOp(line=expr.line, dest=offset, op="+", lhs=pointer, rhs=index_value))
                return DerefAddr(offset)
            base_value = self.lower_expr(base)
            offset = self._new_temp()
            self._emit(BinOp(line=expr.line, dest=offset, op="+", lhs=base_value, rhs=index_value))
            return DerefAddr(offset)
        if isinstance(expr, ast.Cast):
            return self.lower_lvalue(expr.operand)
        raise self._error(f"unsupported lvalue {type(expr).__name__}", expr.line)

    # -- expressions ---------------------------------------------------------

    def _load(self, addr: Address, line: int) -> Temp:
        dest = self._new_temp()
        self._emit(Load(line=line, dest=dest, addr=addr))
        return dest

    def _increment_delta_of(self, target: ast.Expr, value_expr: ast.Expr) -> int | None:
        """Detect `v = v + c` / `v = v - c` shapes for a named target."""
        if not isinstance(target, ast.Identifier):
            return None
        if not isinstance(value_expr, ast.Binary) or value_expr.op not in ("+", "-"):
            return None
        left, right = value_expr.left, value_expr.right
        sign = 1 if value_expr.op == "+" else -1
        if isinstance(left, ast.Identifier) and left.name == target.name and isinstance(right, ast.IntLiteral):
            return sign * right.value
        if (
            value_expr.op == "+"
            and isinstance(right, ast.Identifier)
            and right.name == target.name
            and isinstance(left, ast.IntLiteral)
        ):
            return left.value
        return None

    def lower_expr(self, expr: ast.Expr) -> Value:
        if isinstance(expr, ast.IntLiteral):
            return ConstInt(expr.value)
        if isinstance(expr, ast.CharLiteral):
            return ConstInt(_char_value(expr.value))
        if isinstance(expr, ast.StringLiteral):
            return ConstStr(expr.value)
        if isinstance(expr, ast.Identifier):
            if self._is_local(expr.name):
                return self._load(VarAddr(expr.name), expr.line)
            if self._is_function_name(expr.name):
                return FuncRef(expr.name)
            return self._load(GlobalAddr(expr.name), expr.line)
        if isinstance(expr, ast.Assign):
            return self._lower_assign(expr)
        if isinstance(expr, ast.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Postfix):
            return self._lower_postfix(expr)
        if isinstance(expr, ast.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Conditional):
            cond = self.lower_expr(expr.cond)
            then_value = self.lower_expr(expr.then)
            else_value = self.lower_expr(expr.other)
            dest = self._new_temp()
            self._emit(Select(line=expr.line, dest=dest, cond=cond, then_value=then_value, else_value=else_value))
            return dest
        if isinstance(expr, ast.Call):
            return self._lower_call(expr, is_stmt=False)
        if isinstance(expr, ast.Member) or isinstance(expr, ast.Index):
            addr = self.lower_lvalue(expr)
            return self._load(addr, expr.line)
        if isinstance(expr, ast.Cast):
            value = self.lower_expr(expr.operand)
            dest = self._new_temp()
            to_void = expr.target_type.is_void()
            self._emit(CastOp(line=expr.line, dest=dest, value=value, type_name=str(expr.target_type), to_void=to_void))
            if to_void and isinstance(value, Temp):
                defining = self.temp_defs.get(value)
                if isinstance(defining, Call):
                    defining.void_cast = True
            return dest
        if isinstance(expr, ast.SizeOf):
            return ConstInt(4)  # operand is unevaluated, per C semantics
        raise self._error(f"unsupported expression {type(expr).__name__}", expr.line)

    def _lower_assign(self, expr: ast.Assign) -> Value:
        if expr.op == "=":
            value = self.lower_expr(expr.value)
            addr = self.lower_lvalue(expr.target)
            delta = self._increment_delta_of(expr.target, expr.value)
            self._emit(
                Store(line=expr.line, addr=addr, value=value, kind=StoreKind.ASSIGN, increment_delta=delta)
            )
            return value
        # Compound assignment: read-modify-write.
        op = expr.op[:-1]
        addr = self.lower_lvalue(expr.target)
        old = self._load(addr, expr.line)
        rhs = self.lower_expr(expr.value)
        dest = self._new_temp()
        self._emit(BinOp(line=expr.line, dest=dest, op=op, lhs=old, rhs=rhs))
        delta = None
        if op in ("+", "-") and isinstance(rhs, ConstInt):
            delta = rhs.value if op == "+" else -rhs.value
        self._emit(
            Store(line=expr.line, addr=addr, value=dest, kind=StoreKind.COMPOUND, increment_delta=delta)
        )
        return dest

    def _lower_unary(self, expr: ast.Unary) -> Value:
        if expr.op == "&":
            addr = self.lower_lvalue(expr.operand)
            dest = self._new_temp()
            self._emit(AddrOf(line=expr.line, dest=dest, addr=addr))
            return dest
        if expr.op == "*":
            pointer = self.lower_expr(expr.operand)
            return self._load(DerefAddr(pointer), expr.line)
        if expr.op in ("++", "--"):
            delta = 1 if expr.op == "++" else -1
            addr = self.lower_lvalue(expr.operand)
            old = self._load(addr, expr.line)
            dest = self._new_temp()
            self._emit(BinOp(line=expr.line, dest=dest, op="+", lhs=old, rhs=ConstInt(delta)))
            self._emit(
                Store(line=expr.line, addr=addr, value=dest, kind=StoreKind.INCREMENT, increment_delta=delta)
            )
            return dest
        operand = self.lower_expr(expr.operand)
        if expr.op == "+":
            return operand
        dest = self._new_temp()
        self._emit(UnOp(line=expr.line, dest=dest, op=expr.op, operand=operand))
        return dest

    def _lower_postfix(self, expr: ast.Postfix) -> Value:
        delta = 1 if expr.op == "++" else -1
        addr = self.lower_lvalue(expr.operand)
        old = self._load(addr, expr.line)
        dest = self._new_temp()
        self._emit(BinOp(line=expr.line, dest=dest, op="+", lhs=old, rhs=ConstInt(delta)))
        self._emit(
            Store(line=expr.line, addr=addr, value=dest, kind=StoreKind.INCREMENT, increment_delta=delta)
        )
        return old  # postfix yields the pre-increment value

    def _lower_binary(self, expr: ast.Binary) -> Value:
        if expr.op == ",":
            self.lower_expr(expr.left)
            return self.lower_expr(expr.right)
        lhs = self.lower_expr(expr.left)
        rhs = self.lower_expr(expr.right)
        dest = self._new_temp()
        self._emit(BinOp(line=expr.line, dest=dest, op=expr.op, lhs=lhs, rhs=rhs))
        return dest

    def _lower_call(self, expr: ast.Call, is_stmt: bool) -> Value:
        args = [self.lower_expr(argument) for argument in expr.args]
        callee_name: str | None = None
        callee_value: Value | None = None
        if isinstance(expr.callee, ast.Identifier) and not self._is_local(expr.callee.name):
            callee_name = expr.callee.name
        else:
            callee_value = self.lower_expr(expr.callee)
            if isinstance(callee_value, FuncRef):
                callee_name = callee_value.name
                callee_value = None
        returns_void = callee_name is not None and self.module.callee_return_type(callee_name) == "void"
        dest = None if returns_void else self._new_temp()
        call = Call(
            line=expr.line,
            dest=dest,
            callee=callee_name,
            callee_value=callee_value,
            args=args,
            is_stmt=is_stmt,
        )
        self._emit(call)
        return dest if dest is not None else Undef()

    # -- statements --------------------------------------------------------

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self.lower_stmt(inner)
            return
        if isinstance(stmt, ast.DeclStmt):
            for declarator in stmt.declarators:
                self._declare(declarator.name, declarator.type, declarator.line, declarator.attrs, is_param=False)
                if declarator.init is not None:
                    value = self.lower_expr(declarator.init)
                    self._emit(
                        Store(line=declarator.line, addr=VarAddr(declarator.name), value=value, kind=StoreKind.DECL_INIT)
                    )
            return
        if isinstance(stmt, ast.ExprStmt):
            if stmt.expr is None:
                return
            if isinstance(stmt.expr, ast.Call):
                self._lower_call(stmt.expr, is_stmt=True)
            else:
                self.lower_expr(stmt.expr)
            return
        if isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
            return
        if isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt)
            return
        if isinstance(stmt, ast.ForStmt):
            self._lower_for(stmt)
            return
        if isinstance(stmt, ast.SwitchStmt):
            self._lower_switch(stmt)
            return
        if isinstance(stmt, ast.ReturnStmt):
            value = self.lower_expr(stmt.value) if stmt.value is not None else None
            self.function.return_lines.append(stmt.line)
            self._emit(Ret(line=stmt.line, value=value))
            return
        if isinstance(stmt, ast.BreakStmt):
            if not self.break_stack:
                raise self._error("break outside a loop or switch", stmt.line)
            self._branch_to(self.break_stack[-1], stmt.line)
            return
        if isinstance(stmt, ast.ContinueStmt):
            if not self.continue_stack:
                raise self._error("continue outside a loop", stmt.line)
            self._branch_to(self.continue_stack[-1], stmt.line)
            return
        if isinstance(stmt, ast.GotoStmt):
            target = self._label_block(stmt.label)
            self._branch_to(target, stmt.line)
            return
        if isinstance(stmt, ast.LabelStmt):
            target = self._label_block(stmt.label)
            self._branch_to(target, stmt.line)
            self.current = target
            if stmt.statement is not None:
                self.lower_stmt(stmt.statement)
            return
        raise self._error(f"unsupported statement {type(stmt).__name__}", stmt.line)

    def _label_block(self, label: str) -> BasicBlock:
        if label not in self.label_blocks:
            block = self._new_block(f"label_{label}_")
            self.label_blocks[label] = block
        return self.label_blocks[label]

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        cond = self.lower_expr(stmt.cond)
        then_block = self._new_block("then")
        merge_block = self._new_block("merge")
        else_block = self._new_block("else") if stmt.other is not None else merge_block
        self._emit(Br(line=stmt.line, cond=cond, then_label=then_block.label, else_label=else_block.label))
        self.current = then_block
        self.lower_stmt(stmt.then)
        self._branch_to(merge_block, stmt.line)
        if stmt.other is not None:
            self.current = else_block
            self.lower_stmt(stmt.other)
            self._branch_to(merge_block, stmt.line)
        self.current = merge_block

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        cond_block = self._new_block("loopcond")
        body_block = self._new_block("loopbody")
        exit_block = self._new_block("loopexit")
        if stmt.do_while:
            self._branch_to(body_block, stmt.line)
        else:
            self._branch_to(cond_block, stmt.line)
        self.current = cond_block
        cond = self.lower_expr(stmt.cond)
        self._emit(Br(line=stmt.line, cond=cond, then_label=body_block.label, else_label=exit_block.label))
        self.current = body_block
        self.continue_stack.append(cond_block)
        self.break_stack.append(exit_block)
        self.lower_stmt(stmt.body)
        self.continue_stack.pop()
        self.break_stack.pop()
        self._branch_to(cond_block, stmt.line)
        self.current = exit_block

    def _lower_for(self, stmt: ast.ForStmt) -> None:
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        cond_block = self._new_block("forcond")
        body_block = self._new_block("forbody")
        step_block = self._new_block("forstep")
        exit_block = self._new_block("forexit")
        self._branch_to(cond_block, stmt.line)
        self.current = cond_block
        if stmt.cond is not None:
            cond = self.lower_expr(stmt.cond)
            self._emit(Br(line=stmt.line, cond=cond, then_label=body_block.label, else_label=exit_block.label))
        else:
            self._branch_to(body_block, stmt.line)
        self.current = body_block
        self.continue_stack.append(step_block)
        self.break_stack.append(exit_block)
        self.lower_stmt(stmt.body)
        self.continue_stack.pop()
        self.break_stack.pop()
        self._branch_to(step_block, stmt.line)
        self.current = step_block
        if stmt.step is not None:
            self.lower_expr(stmt.step)
        self._branch_to(cond_block, stmt.line)
        self.current = exit_block

    def _lower_switch(self, stmt: ast.SwitchStmt) -> None:
        """C switch semantics: cases tested in order against the selector,
        bodies fall through to the next case's body unless they break."""
        selector = self.lower_expr(stmt.cond)
        exit_block = self._new_block("switchexit")
        body_blocks = [self._new_block("case") for _ in stmt.cases]
        default_index = next(
            (i for i, case in enumerate(stmt.cases) if case.value is None), None
        )
        # Dispatch chain over the non-default cases, in source order.
        tests = [(i, case) for i, case in enumerate(stmt.cases) if case.value is not None]
        fallback = body_blocks[default_index] if default_index is not None else exit_block
        for position, (index, case) in enumerate(tests):
            case_value = self.lower_expr(case.value)
            compare = self._new_temp()
            self._emit(BinOp(line=case.line, dest=compare, op="==", lhs=selector, rhs=case_value))
            if position + 1 < len(tests):
                next_test = self._new_block("casetest")
                self._emit(
                    Br(line=case.line, cond=compare,
                       then_label=body_blocks[index].label, else_label=next_test.label)
                )
                self.current = next_test
            else:
                self._emit(
                    Br(line=case.line, cond=compare,
                       then_label=body_blocks[index].label, else_label=fallback.label)
                )
        if not tests:
            self._branch_to(fallback, stmt.line)
        # Bodies with fallthrough.
        self.break_stack.append(exit_block)
        for index, case in enumerate(stmt.cases):
            self.current = body_blocks[index]
            for inner in case.body:
                self.lower_stmt(inner)
            next_target = body_blocks[index + 1] if index + 1 < len(body_blocks) else exit_block
            self._branch_to(next_target, case.line)
        self.break_stack.pop()
        self.current = exit_block

    # -- driver ------------------------------------------------------------

    def build(self) -> Function:
        for index, param in enumerate(self.fn_def.params):
            if param.name:
                self._declare(param.name, param.type, param.line, param.attrs, is_param=True, param_index=index)
        assert self.fn_def.body is not None
        self.lower_stmt(self.fn_def.body)
        self._seal_blocks()
        self._wire_successors()
        return self.function

    def _seal_blocks(self) -> None:
        """Give every block a terminator (implicit return at function end)."""
        for block in self.function.blocks:
            if not block.is_terminated():
                if self.fn_def.return_type.is_void():
                    block.append(Ret(line=self.fn_def.end_line))
                else:
                    block.append(Ret(line=self.fn_def.end_line, value=Undef()))

    def _wire_successors(self) -> None:
        by_label = {block.label: block for block in self.function.blocks}
        for block in self.function.blocks:
            terminator = block.terminator
            if isinstance(terminator, Br):
                targets = [terminator.then_label]
                if terminator.cond is not None and terminator.else_label:
                    targets.append(terminator.else_label)
                for label in targets:
                    successor = by_label[label]
                    if successor not in block.successors:
                        block.successors.append(successor)
                        successor.predecessors.append(block)


@obs.traced("ir.lower")
def lower_unit(unit: ast.TranslationUnit, source: PreprocessedSource | None = None) -> Module:
    """Lower a parsed translation unit into an IR module."""
    module = Module(filename=unit.filename, unit=unit, source=source)
    for fn in unit.functions:
        module.signatures[fn.name] = str(fn.return_type)
    types = _TypeTable(unit)
    for fn_def in unit.functions:
        if fn_def.body is None:
            continue
        builder = _FunctionBuilder(fn_def, module, types)
        module.functions[fn_def.name] = builder.build()
    return module


def lower_source(text: str, filename: str = "<memory>", config: set[str] | None = None) -> Module:
    """Parse and lower MiniC source text in one step."""
    unit, preprocessed = parse_source(text, filename=filename, config=config)
    return lower_unit(unit, preprocessed)
