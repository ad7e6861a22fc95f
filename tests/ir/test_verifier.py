"""Tests for the IR verifier, including property-based coverage that
every lowered program verifies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.ir import Alloca, BinOp, Load, Store, StoreKind, VarAddr, lower_source
from repro.ir.values import ConstInt, ParamValue, Temp
from repro.ir.verifier import verify_function, verify_module

from tests.test_properties import gen_program


def fn(text, name=None):
    module = lower_source(text, filename="t.c")
    if name is None:
        name = next(iter(module.functions))
    return module.functions[name]


class TestVerifierAcceptsLoweredCode:
    SAMPLES = [
        "int f(void) { return 0; }",
        "int f(int a, int b) { int c = a + b; return c; }",
        "void f(char *o, char c) { if (c) { *o++ = '_'; } *o++ = 0; }",
        "struct s { int a; };\nint f(void) { struct s v; v.a = 1; return v.a; }",
        "int f(int x) { switch (x) { case 1: return 1; default: return 0; } }",
        "int f(int x) { if (x) goto out; x = 1; out: return x; }",
        "int f(int n) { int s = 0; while (n) { s += n; n--; } return s; }",
    ]

    def test_samples_verify(self):
        for sample in self.SAMPLES:
            verify_module(lower_source(sample, filename="t.c"))

    @given(params=st.tuples(st.integers(0, 10_000), st.integers(0, 25)))
    @settings(max_examples=100, deadline=None)
    def test_generated_programs_verify(self, params):
        seed, n = params
        verify_module(lower_source(gen_program(seed, n), filename="g.c"))

    def test_corpus_modules_verify(self):
        from repro.corpus import generate_app

        app = generate_app("nfs-ganesha", scale=0.03, seed=5)
        project = app.project()
        for module in map(project.module, project.sources):
            verify_module(module)


class TestVerifierRejectsCorruption:
    def test_double_temp_definition(self):
        function = fn("int f(void) { int a = 1; return a; }")
        loads = [i for i in function.instructions() if isinstance(i, Load)]
        # duplicate a load's dest by appending a binop defining same temp
        function.entry.instructions.insert(
            len(function.entry.instructions) - 1,
            BinOp(line=1, dest=loads[0].dest, op="+", lhs=ConstInt(1), rhs=ConstInt(2)),
        )
        with pytest.raises(AnalysisError, match="defined twice"):
            verify_function(function)

    def test_use_of_undefined_temp(self):
        function = fn("int f(void) { int a = 1; return a; }")
        function.entry.instructions.insert(
            0, BinOp(line=1, dest=Temp(999), op="+", lhs=Temp(998), rhs=ConstInt(1))
        )
        with pytest.raises(AnalysisError, match="undefined temp"):
            verify_function(function)

    def test_use_before_definition_in_block(self):
        function = fn("int f(void) { int a = 1; return a; }")
        (load,) = [i for i in function.instructions() if isinstance(i, Load)]
        instructions = function.entry.instructions
        index = instructions.index(load)
        instructions.insert(
            index, BinOp(line=1, dest=Temp(500), op="+", lhs=load.dest, rhs=ConstInt(0))
        )
        with pytest.raises(AnalysisError, match="used before its definition"):
            verify_function(function)

    def test_undeclared_variable_access(self):
        function = fn("void f(void) { int a; a = 1; }")
        function.entry.instructions.insert(
            len(function.entry.instructions) - 1,
            Store(line=2, addr=VarAddr("ghost"), value=ConstInt(1)),
        )
        with pytest.raises(AnalysisError, match="undeclared variable"):
            verify_function(function)

    def test_missing_param_init(self):
        function = fn("int f(int x) { return x; }")
        function.entry.instructions = [
            instruction
            for instruction in function.entry.instructions
            if not (
                isinstance(instruction, Store)
                and instruction.kind is StoreKind.PARAM_INIT
            )
        ]
        with pytest.raises(AnalysisError, match="entry stores"):
            verify_function(function)

    def test_param_init_wrong_value(self):
        function = fn("int f(int x) { return x; }")
        for instruction in function.entry.instructions:
            if isinstance(instruction, Store) and instruction.kind is StoreKind.PARAM_INIT:
                instruction.value = ConstInt(0)
        with pytest.raises(AnalysisError, match="not a ParamValue"):
            verify_function(function)
