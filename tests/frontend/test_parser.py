"""Unit tests for the MiniC parser."""

import pytest

from repro.errors import LexError, ParseError
from repro.frontend import ast
from repro.frontend.parser import parse_source


def parse(text, config=None):
    unit, _ = parse_source(text, filename="test.c", config=config)
    return unit


def first_fn(text):
    return parse(text).functions[0]


def body_stmts(text):
    return first_fn(text).body.statements


class TestFunctions:
    def test_simple_function(self):
        fn = first_fn("int f(void) { return 0; }")
        assert fn.name == "f"
        assert fn.return_type == ast.NamedType("int")
        assert fn.params == []
        assert not fn.is_prototype

    def test_prototype(self):
        fn = first_fn("int g(int x);")
        assert fn.is_prototype

    def test_params(self):
        fn = first_fn("int open(char *path, size_t bufsz) { return 0; }")
        assert [p.name for p in fn.params] == ["path", "bufsz"]
        assert fn.params[0].type == ast.PointerType(ast.NamedType("char"))
        assert fn.params[1].type == ast.NamedType("size_t")

    def test_param_attribute(self):
        fn = first_fn("int f(int force [[maybe_unused]]) { return 0; }")
        assert "maybe_unused" in fn.params[0].attrs

    def test_gnu_attribute_on_param(self):
        fn = first_fn("int f(int x __attribute__((unused))) { return 0; }")
        assert "unused" in fn.params[0].attrs

    def test_varargs(self):
        fn = first_fn("int printf(char *fmt, ...);")
        assert [p.name for p in fn.params] == ["fmt"]

    def test_static_function(self):
        fn = first_fn("static void h(void) { }")
        assert "static" in fn.storage

    def test_pointer_return_type(self):
        fn = first_fn("char *dup(char *s) { return s; }")
        assert fn.return_type == ast.PointerType(ast.NamedType("char"))

    def test_function_line_span(self):
        fn = first_fn("int f(void)\n{\n  return 0;\n}\n")
        assert fn.line == 1
        assert fn.end_line == 4


class TestDeclarations:
    def test_local_decl_with_init(self):
        (decl, _ret) = body_stmts("int f(void) { int attr = 3; return attr; }")
        assert isinstance(decl, ast.DeclStmt)
        d = decl.declarators[0]
        assert d.name == "attr"
        assert isinstance(d.init, ast.IntLiteral)

    def test_multi_declarator(self):
        (decl,) = body_stmts("void f(void) { int a = 1, b = 2; }")
        assert [d.name for d in decl.declarators] == ["a", "b"]

    def test_pointer_decl(self):
        (decl,) = body_stmts("void f(void) { char *o = 0; }")
        assert decl.declarators[0].type == ast.PointerType(ast.NamedType("char"))

    def test_array_decl(self):
        (decl,) = body_stmts('void f(void) { char host[10] = "127.0.0.1"; }')
        d = decl.declarators[0]
        assert isinstance(d.type, ast.ArrayType)
        assert d.type.length == 10

    def test_typedef_name_decl(self):
        unit = parse("typedef int acl_t;\nvoid f(void) { acl_t entry = 0; }")
        decl = unit.functions[0].body.statements[0]
        assert isinstance(decl, ast.DeclStmt)
        assert decl.declarators[0].type == ast.NamedType("acl_t")

    def test_unknown_type_heuristic(self):
        (decl,) = body_stmts("void f(void) { bitmap4 bm = 0; }")
        assert isinstance(decl, ast.DeclStmt)

    def test_unknown_pointer_type_heuristic(self):
        (decl, _) = body_stmts("void f(void) { attrmask_t *mask = 0; return; }")
        assert isinstance(decl, ast.DeclStmt)
        assert isinstance(decl.declarators[0].type, ast.PointerType)

    def test_unused_attribute_on_local(self):
        (decl,) = body_stmts("void f(void) { int x __attribute__((unused)) = 1; }")
        assert "unused" in decl.declarators[0].attrs

    def test_struct_local(self):
        unit = parse("struct req { int id; };\nvoid f(void) { struct req r; r.id = 1; }")
        stmts = unit.functions[0].body.statements
        assert isinstance(stmts[0], ast.DeclStmt)
        assign = stmts[1].expr
        assert isinstance(assign, ast.Assign)
        assert isinstance(assign.target, ast.Member)


class TestStatements:
    def test_if_else(self):
        (stmt,) = body_stmts("void f(int x) { if (x > 0) { x = 1; } else { x = 2; } }")
        assert isinstance(stmt, ast.IfStmt)
        assert stmt.other is not None

    def test_while(self):
        (stmt,) = body_stmts("void f(int x) { while (x) x = x - 1; }")
        assert isinstance(stmt, ast.WhileStmt)
        assert not stmt.do_while

    def test_do_while(self):
        (stmt,) = body_stmts("void f(int x) { do x = 1; while (x); }")
        assert stmt.do_while

    def test_for_with_decl_init(self):
        (stmt,) = body_stmts("void f(void) { for (int i = 0; i < 10; i++) { } }")
        assert isinstance(stmt, ast.ForStmt)
        assert isinstance(stmt.init, ast.DeclStmt)

    def test_for_with_expr_init(self):
        src = """
        int next_attr_from_bitmap(int *bm);
        void g(int *bm) {
            int attr;
            for (attr = next_attr_from_bitmap(bm); attr != -1; attr = next_attr_from_bitmap(bm)) { }
        }
        """
        stmt = parse(src).functions[1].body.statements[1]
        assert isinstance(stmt, ast.ForStmt)
        assert isinstance(stmt.init, ast.ExprStmt)

    def test_return_void(self):
        (stmt,) = body_stmts("void f(void) { return; }")
        assert isinstance(stmt, ast.ReturnStmt)
        assert stmt.value is None

    def test_break_continue(self):
        stmts = body_stmts("void f(void) { while (1) { break; } while (1) { continue; } }")
        assert isinstance(stmts[0].body.statements[0], ast.BreakStmt)
        assert isinstance(stmts[1].body.statements[0], ast.ContinueStmt)

    def test_goto_and_label(self):
        stmts = body_stmts("int f(void) { goto out; out: return 1; }")
        assert isinstance(stmts[0], ast.GotoStmt)
        assert stmts[0].label == "out"
        assert isinstance(stmts[1], ast.LabelStmt)

    def test_empty_statement(self):
        (stmt,) = body_stmts("void f(void) { ; }")
        assert isinstance(stmt, ast.ExprStmt) and stmt.expr is None


class TestExpressions:
    def expr(self, text):
        (stmt,) = body_stmts(f"void f(int a, int b, int c, int *p) {{ {text}; }}")
        return stmt.expr

    def test_precedence_mul_over_add(self):
        e = self.expr("a = b + c * 2")
        assert isinstance(e.value, ast.Binary) and e.value.op == "+"
        assert isinstance(e.value.right, ast.Binary) and e.value.right.op == "*"

    def test_right_assoc_assignment(self):
        e = self.expr("a = b = c")
        assert isinstance(e.value, ast.Assign)

    def test_compound_assignment(self):
        e = self.expr("a += 2")
        assert e.op == "+="

    def test_ternary(self):
        e = self.expr("a = b ? 1 : 2")
        assert isinstance(e.value, ast.Conditional)

    def test_call_with_args(self):
        e = self.expr('a = log_mod_open("headers.log", 0)')
        assert isinstance(e.value, ast.Call)
        assert len(e.value.args) == 2

    def test_nested_call(self):
        e = self.expr("a = outer(inner(b), c)")
        assert isinstance(e.value.args[0], ast.Call)

    def test_arrow_member(self):
        e = self.expr("p->next = 0")
        assert isinstance(e.target, ast.Member) and e.target.arrow

    def test_postincrement_deref_cursor(self):
        e = self.expr("*p++ = 'a'")
        assert isinstance(e.target, ast.Unary) and e.target.op == "*"
        assert isinstance(e.target.operand, ast.Postfix)

    def test_address_of(self):
        (s1, s2) = body_stmts("void f(int a, int *p) { p = &a; a = *p; }")
        assert isinstance(s1.expr.value, ast.Unary) and s1.expr.value.op == "&"
        assert isinstance(s2.expr.value, ast.Unary) and s2.expr.value.op == "*"

    def test_cast(self):
        e = self.expr("a = (int) b")
        assert isinstance(e.value, ast.Cast)

    def test_void_cast_discard(self):
        e = self.expr("(void) a")
        assert isinstance(e, ast.Cast)
        assert e.target_type.is_void()

    def test_sizeof_type(self):
        e = self.expr("a = sizeof(int)")
        assert isinstance(e.value, ast.SizeOf)

    def test_sizeof_expr(self):
        e = self.expr("a = sizeof b")
        assert isinstance(e.value, ast.SizeOf)

    def test_index(self):
        (s1,) = body_stmts("void f(int *p) { p[2] = 5; }")
        assert isinstance(s1.expr.target, ast.Index)

    def test_logical_chain(self):
        e = self.expr("a = b && c || a")
        assert e.value.op == "||"

    def test_negative_literal(self):
        e = self.expr("a = -1")
        assert isinstance(e.value, ast.Unary) and e.value.op == "-"

    def test_null_keyword(self):
        e = self.expr("p = NULL")
        assert isinstance(e.value, ast.IntLiteral) and e.value.value == 0

    def test_string_concat(self):
        (stmt,) = body_stmts('void f(char *p) { p = "a" "b"; }')
        assert stmt.expr.value.value == "ab"

    def test_parenthesized_call_not_cast(self):
        e = self.expr("a = (b) + c")
        assert isinstance(e.value, ast.Binary)


class TestTopLevel:
    def test_struct_def(self):
        unit = parse("struct bitmap4 { int words[4]; int count; };")
        st = unit.structs[0]
        assert st.name == "bitmap4"
        assert [f.name for f in st.fields] == ["words", "count"]

    def test_global_var(self):
        unit = parse("int verbose = 0;")
        assert unit.globals[0].name == "verbose"

    def test_typedef_simple(self):
        unit = parse("typedef unsigned int attrmask_t;")
        assert unit.typedefs[0].name == "attrmask_t"

    def test_typedef_struct(self):
        unit = parse("typedef struct acl { int mode; } acl_t;\nacl_t make(void);")
        assert unit.typedefs[0].name == "acl_t"
        assert unit.functions[0].return_type == ast.NamedType("acl_t")

    def test_multiple_functions(self):
        unit = parse("int a(void) { return 1; }\nint b(void) { return 2; }")
        assert [f.name for f in unit.functions] == ["a", "b"]

    def test_function_lookup(self):
        unit = parse("int a(void);\nint a(void) { return 1; }")
        fn = unit.function("a")
        assert fn is not None and not fn.is_prototype

    def test_config_disabled_code_not_parsed(self):
        src = "void f(void) {\n int n = 0;\n#if USE_ICMP\n n = lookup();\n#endif\n}"
        unit = parse(src)
        stmts = unit.functions[0].body.statements
        assert len(stmts) == 1  # the call under #if is configured out


class TestParseErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int f(void) { return 0 }")

    def test_unbalanced_brace(self):
        with pytest.raises(ParseError):
            parse("int f(void) { return 0;")

    def test_garbage_expression(self):
        with pytest.raises(ParseError):
            parse("int f(void) { a = ; }")

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse("int f(void) {\n  a = ;\n}")
        assert excinfo.value.line == 2


class TestNumericLiterals:
    """Every INT token either has a value or is a ParseError at the literal."""

    @pytest.mark.parametrize(
        "src, column",
        [
            ("int f(void){ return 0x; }", 21),
            ("int a[09];", 7),
            ("int a[1.5];", 7),
            ("int a[0x];", 7),
        ],
    )
    def test_malformed_literal_is_a_parse_error_at_the_literal(self, src, column):
        with pytest.raises(ParseError, match="malformed number") as excinfo:
            parse(src)
        assert (excinfo.value.line, excinfo.value.column) == (1, column)

    @pytest.mark.parametrize("src, column", [("int f(void){ return ²; }", 21), ("int a[²];", 7)])
    def test_non_decimal_digit_is_a_lex_error(self, src, column):
        # "²" passes str.isdigit() but is no decimal digit: the lexer rejects it.
        with pytest.raises(LexError, match="unexpected character '²'") as excinfo:
            parse(src)
        assert (excinfo.value.line, excinfo.value.column) == (1, column)

    @pytest.mark.parametrize(
        "literal, value",
        [("0xff", 255), ("0x1F", 31), ("0xFFu", 255), ("10UL", 10), ("1.5f", 1), ("09", 9), ("07", 7)],
    )
    def test_literal_values(self, literal, value):
        (stmt,) = body_stmts(f"int f(void) {{ return {literal}; }}")
        assert stmt.value == ast.IntLiteral(line=1, value=value, text=literal)

    def test_hex_array_length_ending_in_f(self):
        (var,) = parse("int a[0x1f];").globals
        assert var.type.length == 31


class TestPaperExamples:
    """The paper's Figure 1/5/6/8 snippets must parse."""

    def test_figure_1a_bitmap(self):
        src = """
        int next_attr_from_bitmap(bitmap4 *bm);
        int bitmap4_to_attrmask_t(bitmap4 *bm, attrmask_t *mask)
        {
            int attr = next_attr_from_bitmap(bm);
            for (attr = next_attr_from_bitmap(bm); attr != -1; attr = next_attr_from_bitmap(bm))
            { }
            return 0;
        }
        """
        unit = parse(src)
        assert unit.function("bitmap4_to_attrmask_t") is not None

    def test_figure_1b_logfile(self):
        src = """
        int logfile_mod_open(char *path, size_t bufsz)
        {
            bufsz = 1400;
            if (bufsz > 0) { return 1; }
            return 0;
        }
        """
        assert parse(src).functions[0].name == "logfile_mod_open"

    def test_figure_5_cursor(self):
        src = """
        static void dashes_to_underscores(char *output, char c)
        {
            char *o = output;
            if (c == '-')
                *o++ = '_';
            *o++ = '\\0';
        }
        """
        assert parse(src).functions[0].name == "dashes_to_underscores"

    def test_figure_8_acl(self):
        src = """
        acl_t fsal_acl_posix(int en)
        {
            int ret;
            int pset;
            acl_t allow_acl;
            ret = get_permset(en, &pset);
            ret = calc_mask(&allow_acl);
            if (ret) { return allow_acl; }
            return allow_acl;
        }
        """
        assert parse(src).functions[0].name == "fsal_acl_posix"
