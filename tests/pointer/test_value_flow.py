"""Unit tests for the value-flow graph (alias + def-use queries)."""

from repro.dataflow.reaching import definition_has_use, reaching_definitions
from repro.ir import Call, lower_source
from repro.pointer import build_value_flow
from repro.pointer.value_flow import call_result_used


def build(text):
    module = lower_source(text, filename="t.c")
    return module, build_value_flow(module)


def stores_of(function, var):
    return [s for s in function.stores() if s.addr is not None and s.addr.tracked_var() == var]


class TestDefinitionUse:
    def test_direct_use(self):
        module, _ = build("int f(void) { int a = 1; return a; }")
        f = module.functions["f"]
        (store,) = stores_of(f, "a")
        assert definition_has_use(reaching_definitions(f), store)

    def test_dead_store(self):
        module, _ = build("int f(void) { int a = 1; a = 2; return a; }")
        f = module.functions["f"]
        first, second = stores_of(f, "a")
        assert not definition_has_use(reaching_definitions(f), first)
        assert definition_has_use(reaching_definitions(f), second)


class TestAliasCheck:
    def test_address_taken_and_escaping(self):
        src = "void sink(int *p);\nvoid f(void) { int ret; sink(&ret); ret = 1; }"
        module, vfg = build(src)
        f = module.functions["f"]
        assert vfg.may_be_used_indirectly(f, "ret")

    def test_plain_local_not_indirect(self):
        module, vfg = build("void f(void) { int a; a = 1; }")
        f = module.functions["f"]
        assert not vfg.may_be_used_indirectly(f, "a")

    def test_field_alias_through_base(self):
        src = """
        struct s { int a; };
        void sink(struct s *p);
        void f(void) { struct s v; sink(&v); v.a = 1; }
        """
        module, vfg = build(src)
        f = module.functions["f"]
        assert vfg.may_be_used_indirectly(f, "v#a")

    def test_address_taken_set(self):
        src = "void g(int *x);\nvoid f(void) { int a; int b; g(&a); b = 2; }"
        module, vfg = build(src)
        assert vfg.address_taken["f"] == {"a"}


class TestCallResults:
    def test_discarded_call_result(self):
        module, vfg = build("int g(void);\nvoid f(void) { g(); }")
        f = module.functions["f"]
        (call,) = [i for i in f.instructions() if isinstance(i, Call)]
        assert not call_result_used(call, vfg.temp_uses(f))

    def test_used_call_result(self):
        module, vfg = build("int g(void);\nint f(void) { return g(); }")
        f = module.functions["f"]
        (call,) = [i for i in f.instructions() if isinstance(i, Call)]
        assert call_result_used(call, vfg.temp_uses(f))

    def test_resolves_indirect(self):
        src = """
        int impl(void) { return 1; }
        void f(void) { int r; int *fp; fp = impl; r = fp(); }
        """
        module, vfg = build(src)
        f = module.functions["f"]
        calls = [i for i in f.instructions() if isinstance(i, Call)]
        assert vfg.resolve_call(calls[0]) == ["impl"]
