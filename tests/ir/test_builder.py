"""Unit tests for AST → IR lowering."""

import pytest

from repro.core.project import Project
from repro.ir import (
    Alloca,
    BinOp,
    Br,
    Call,
    CastOp,
    DerefAddr,
    ElementAddr,
    FieldAddr,
    Load,
    Ret,
    Select,
    Store,
    StoreKind,
    VarAddr,
    lower_source,
)
from repro.ir.values import ConstInt, FuncRef, ParamValue


def fn(text, name=None, config=None):
    module = lower_source(text, filename="t.c", config=config)
    if name is None:
        name = next(iter(module.functions))
    return module.functions[name]


def instrs(function, kind):
    return [i for i in function.instructions() if isinstance(i, kind)]


class TestLocalsAndParams:
    def test_param_gets_alloca_and_entry_store(self):
        f = fn("int f(int x) { return x; }")
        allocas = instrs(f, Alloca)
        assert len(allocas) == 1 and allocas[0].is_param
        stores = instrs(f, Store)
        assert stores[0].kind is StoreKind.PARAM_INIT
        assert isinstance(stores[0].value, ParamValue)

    def test_local_decl_init(self):
        f = fn("void f(void) { int a = 3; }")
        (store,) = instrs(f, Store)
        assert store.kind is StoreKind.DECL_INIT
        assert store.addr == VarAddr("a")
        assert store.value == ConstInt(3)

    def test_plain_assignment(self):
        f = fn("void f(void) { int a; a = 7; }")
        (store,) = instrs(f, Store)
        assert store.kind is StoreKind.ASSIGN

    def test_variable_read_is_load(self):
        f = fn("int f(void) { int a = 1; return a; }")
        loads = instrs(f, Load)
        assert any(l.addr == VarAddr("a") for l in loads)

    def test_param_index_recorded(self):
        f = fn("void f(int a, int b) { }")
        assert f.variables["a"].param_index == 0
        assert f.variables["b"].param_index == 1

    def test_compound_assignment_reads_then_writes(self):
        f = fn("void f(int a) { a += 2; }")
        stores = instrs(f, Store)
        compound = [s for s in stores if s.kind is StoreKind.COMPOUND]
        assert len(compound) == 1
        assert compound[0].increment_delta == 2
        assert any(l.addr == VarAddr("a") for l in instrs(f, Load))

    def test_attrs_recorded_on_varinfo(self):
        f = fn("void f(int force [[maybe_unused]]) { }")
        assert "maybe_unused" in f.variables["force"].attrs


class TestIncrements:
    def test_postincrement_delta(self):
        f = fn("void f(int i) { i++; }")
        increments = [s for s in instrs(f, Store) if s.kind is StoreKind.INCREMENT]
        assert increments[0].increment_delta == 1

    def test_predecrement_delta(self):
        f = fn("void f(int i) { --i; }")
        increments = [s for s in instrs(f, Store) if s.kind is StoreKind.INCREMENT]
        assert increments[0].increment_delta == -1

    def test_explicit_self_add(self):
        f = fn("void f(int i) { i = i + 4; }")
        assigns = [s for s in instrs(f, Store) if s.kind is StoreKind.ASSIGN]
        assert assigns[0].increment_delta == 4

    def test_self_sub(self):
        f = fn("void f(int i) { i = i - 2; }")
        assigns = [s for s in instrs(f, Store) if s.kind is StoreKind.ASSIGN]
        assert assigns[0].increment_delta == -2

    def test_non_increment_has_no_delta(self):
        f = fn("void f(int i, int j) { i = j + 1; }")
        assigns = [s for s in instrs(f, Store) if s.kind is StoreKind.ASSIGN]
        assert assigns[0].increment_delta is None

    def test_cursor_deref_postincrement(self):
        f = fn("void f(char *o) { *o++ = 'x'; }")
        stores = instrs(f, Store)
        deref_stores = [s for s in stores if isinstance(s.addr, DerefAddr)]
        increment_stores = [s for s in stores if s.kind is StoreKind.INCREMENT]
        assert len(deref_stores) == 1
        assert len(increment_stores) == 1
        assert increment_stores[0].addr == VarAddr("o")


class TestFields:
    def test_direct_field_store(self):
        f = fn("struct s { int id; };\nvoid f(void) { struct s v; v.id = 1; }", name="f")
        stores = instrs(f, Store)
        assert stores[0].addr == FieldAddr("v", "id")
        assert stores[0].addr.tracked_var() == "v#id"

    def test_nested_field_path(self):
        src = """
        struct inner { int x; };
        struct outer { struct inner in; };
        void f(void) { struct outer o; o.in.x = 2; }
        """
        f = fn(src, name="f")
        (store,) = instrs(f, Store)
        assert store.addr == FieldAddr("o", "in.x")

    def test_arrow_field_is_indirect(self):
        f = fn("struct s { int id; };\nvoid f(struct s *p) { p->id = 1; }", name="f")
        stores = [s for s in instrs(f, Store) if s.kind is StoreKind.ASSIGN]
        assert isinstance(stores[0].addr, DerefAddr)
        assert stores[0].addr.field == "id"

    def test_field_load(self):
        src = "struct s { int id; };\nint f(void) { struct s v; v.id = 1; return v.id; }"
        f = fn(src, name="f")
        loads = instrs(f, Load)
        assert any(l.addr == FieldAddr("v", "id") for l in loads)

    def test_typedef_struct_local_is_struct(self):
        src = "typedef struct acl { int mode; } acl_t;\nvoid f(void) { acl_t a; a.mode = 1; }"
        f = fn(src, name="f")
        assert f.variables["a"].is_struct


class TestArraysAndPointers:
    def test_array_element_store(self):
        f = fn("void f(void) { int arr[4]; arr[0] = 1; }")
        stores = instrs(f, Store)
        assert isinstance(stores[0].addr, ElementAddr)
        assert stores[0].addr.var == "arr"

    def test_array_is_flagged(self):
        f = fn("void f(void) { char host[10]; }")
        assert f.variables["host"].is_array

    def test_pointer_deref_store(self):
        f = fn("void f(int *p) { *p = 5; }")
        assigns = [s for s in instrs(f, Store) if s.kind is StoreKind.ASSIGN]
        assert isinstance(assigns[0].addr, DerefAddr)

    def test_address_of(self):
        from repro.ir import AddrOf

        f = fn("void g(int *p);\nvoid f(void) { int x; g(&x); }", name="f")
        addr_ofs = instrs(f, AddrOf)
        assert addr_ofs[0].addr == VarAddr("x")

    def test_pointer_index(self):
        f = fn("void f(int *p) { p[3] = 1; }")
        assigns = [s for s in instrs(f, Store) if s.kind is StoreKind.ASSIGN]
        assert isinstance(assigns[0].addr, DerefAddr)


class TestCalls:
    def test_direct_call_with_result(self):
        f = fn("int g(void);\nint f(void) { int r = g(); return r; }", name="f")
        (call,) = instrs(f, Call)
        assert call.callee == "g"
        assert call.dest is not None
        assert not call.is_stmt

    def test_statement_call_marks_discarded(self):
        f = fn("int g(void);\nvoid f(void) { g(); }", name="f")
        (call,) = instrs(f, Call)
        assert call.is_stmt
        assert call.dest is not None  # implicit tmp = g()

    def test_void_callee_has_no_dest(self):
        f = fn("void g(void);\nvoid f(void) { g(); }", name="f")
        (call,) = instrs(f, Call)
        assert call.dest is None

    def test_unknown_callee_assumed_int(self):
        f = fn("void f(void) { mystery(); }")
        (call,) = instrs(f, Call)
        assert call.dest is not None

    def test_void_cast_marks_call(self):
        f = fn("int g(void);\nvoid f(void) { (void) g(); }", name="f")
        (call,) = instrs(f, Call)
        assert call.void_cast

    def test_function_pointer_call(self):
        src = "int real(void);\nvoid f(void) { int (0); }"
        # function pointers via variables:
        src = """
        int real(int x);
        void f(void) {
            int r;
            int *handler;
            handler = real;
            r = handler(1);
        }
        """
        f = fn(src, name="f")
        calls = instrs(f, Call)
        assert calls[0].is_indirect
        stores = [s for s in instrs(f, Store) if s.addr == VarAddr("handler")]
        assert any(isinstance(s.value, FuncRef) for s in stores)

    def test_call_args_lowered(self):
        f = fn("int g(int a, int b);\nvoid f(int x) { g(x, 3); }", name="f")
        (call,) = instrs(f, Call)
        assert len(call.args) == 2
        assert call.args[1] == ConstInt(3)


class TestControlFlow:
    def test_if_creates_branch(self):
        f = fn("void f(int x) { if (x) { x = 1; } }")
        branches = [i for i in instrs(f, Br) if i.cond is not None]
        assert len(branches) == 1

    def test_if_else_blocks(self):
        f = fn("void f(int x) { if (x) x = 1; else x = 2; }")
        labels = [b.label for b in f.blocks]
        assert any(l.startswith("then") for l in labels)
        assert any(l.startswith("else") for l in labels)

    def test_while_has_back_edge(self):
        f = fn("void f(int x) { while (x) { x = x - 1; } }")
        edges = {(b.label, s.label) for b in f.blocks for s in b.successors}
        cond_labels = [b.label for b in f.blocks if b.label.startswith("loopcond")]
        assert any(dst in cond_labels and src.startswith("loopbody") for src, dst in edges)

    def test_for_loop_structure(self):
        f = fn("void f(void) { for (int i = 0; i < 3; i++) { } }")
        labels = [b.label for b in f.blocks]
        assert any(l.startswith("forcond") for l in labels)
        assert any(l.startswith("forstep") for l in labels)

    def test_return_terminates(self):
        f = fn("int f(void) { return 1; }")
        rets = instrs(f, Ret)
        assert rets and rets[0].value == ConstInt(1)

    def test_return_lines_recorded(self):
        f = fn("int f(int x) {\n if (x) { return 1; }\n return 2;\n}")
        assert len(f.return_lines) == 2

    def test_implicit_void_return(self):
        f = fn("void f(void) { int a = 1; }")
        assert any(isinstance(i, Ret) for i in instrs(f, Ret))

    def test_code_after_return_lowered_in_dead_block(self):
        f = fn("int f(void) { return 1; int x = 2; return x; }")
        dead = [b for b in f.blocks if b.label.startswith("dead")]
        assert dead and dead[0].instructions

    def test_break_and_continue(self):
        f = fn("void f(int x) { while (x) { if (x == 1) break; if (x == 2) continue; x = 0; } }")
        # structure parses and lowers without error; exit reachable
        assert any(b.label.startswith("loopexit") for b in f.blocks)

    def test_goto_label(self):
        f = fn("int f(int x) { if (x) goto out; x = 1; out: return x; }")
        assert any(b.label.startswith("label_out") for b in f.blocks)

    def test_ternary_lowers_to_select(self):
        f = fn("void f(int a, int b) { int c = a ? b : 0; }")
        assert instrs(f, Select)

    def test_logical_ops_lower_eagerly(self):
        f = fn("void f(int a, int b) { int c = a && b; }")
        binops = [i for i in instrs(f, BinOp) if i.op == "&&"]
        assert binops


class TestModuleLevel:
    def test_signatures_include_prototypes(self):
        module = lower_source("void helper(void);\nint f(void) { return 0; }")
        assert module.signatures["helper"] == "void"
        assert module.callee_return_type("unknown_fn") == "int"

    def test_prototypes_not_lowered(self):
        module = lower_source("int proto(int x);\nint f(void) { return 0; }")
        assert "proto" not in module.functions

    def test_config_disabled_code_absent_from_ir(self):
        src = "int lookup(void);\nvoid f(void) {\n int n = 0;\n#if USE_ICMP\n n = lookup();\n#endif\n}"
        module = lower_source(src)
        f = module.functions["f"]
        assert not instrs(f, Call)
        enabled = lower_source(src, config={"USE_ICMP"}).functions["f"]
        assert instrs(enabled, Call)

    def test_loc_counts_raw_lines(self):
        project = Project.from_sources({"a.c": "int f(void) {\n return 0;\n}\n"})
        assert project.loc() == 4

    def test_sizeof_does_not_use_operand(self):
        f = fn("void f(int x) { int n = sizeof(x); }")
        assert not any(l.addr == VarAddr("x") for l in instrs(f, Load))

    def test_str_rendering(self):
        f = fn("int f(void) { return 1; }")
        text = str(f)
        assert "define int @f" in text
        assert "ret 1" in text
