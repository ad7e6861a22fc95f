"""Recursive-descent parser for MiniC.

Covers the C subset the corpus and the paper's examples use: functions,
struct definitions, typedefs, local/global declarations, pointers and
address-of, field accesses (``.`` / ``->``), array indexing, all common
operators including compound assignment and postfix/prefix increment,
``if``/``while``/``do``/``for``/``goto``/labels, casts (including the
``(void)`` discard idiom), and unused-hint attributes
(``__attribute__((unused))`` and ``[[maybe_unused]]``).

Typedef and struct names are tracked so ``acl_t entry;`` parses as a
declaration; unknown ``IDENT IDENT``/``IDENT * IDENT`` statement prefixes
are also treated as declarations, which matches how system C code reads.
"""

from __future__ import annotations

from repro import obs
from repro.errors import ParseError
from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import Token, TokenKind, tokenize
from repro.frontend.preprocessor import PreprocessedSource, preprocess

_TYPE_KEYWORDS = frozenset(
    {"int", "char", "void", "long", "short", "unsigned", "signed", "float", "double", "bool", "size_t", "ssize_t"}
)
_QUALIFIERS = frozenset({"const", "static", "extern", "inline"})

_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="})

_IDENT = TokenKind.IDENT
_KEYWORD = TokenKind.KEYWORD
_INT = TokenKind.INT
_CHAR = TokenKind.CHAR
_STRING = TokenKind.STRING
_PUNCT = TokenKind.PUNCT
_EOF = TokenKind.EOF


class Parser:
    """Parses one translation unit from an EOF-terminated token stream.

    ``pos`` never moves past the EOF token, so ``tokens[pos]`` is always
    the current token; only lookahead (``_peek`` with an offset) can run
    off the end, and it then sees EOF.
    """

    def __init__(self, tokens: list[Token], filename: str = "<memory>"):
        self.tokens = tokens
        self.filename = filename
        self.pos = 0
        self.typedef_names: set[str] = set()
        self.struct_names: set[str] = set()

    # -- token helpers -------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        try:
            return self.tokens[self.pos + offset]
        except IndexError:  # lookahead past the end sees EOF
            return self.tokens[-1]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not _EOF:
            self.pos += 1
        return token

    def _check_punct(self, text: str) -> bool:
        token = self.tokens[self.pos]
        return token.value == text and token.kind is _PUNCT

    def _check_keyword(self, text: str) -> bool:
        token = self.tokens[self.pos]
        return token.value == text and token.kind is _KEYWORD

    def _accept_punct(self, text: str) -> bool:
        token = self.tokens[self.pos]
        if token.value == text and token.kind is _PUNCT:
            self.pos += 1
            return True
        return False

    def _accept_keyword(self, text: str) -> bool:
        token = self.tokens[self.pos]
        if token.value == text and token.kind is _KEYWORD:
            self.pos += 1
            return True
        return False

    def _expect_punct(self, text: str) -> Token:
        token = self.tokens[self.pos]
        if token.value == text and token.kind is _PUNCT:
            self.pos += 1
            return token
        raise self._error(f"expected {text!r}, found {token.value!r}")

    def _error(self, message: str) -> ParseError:
        token = self.tokens[self.pos]
        return ParseError(message, self.filename, token.line, token.column)

    # -- type recognition ------------------------------------------------

    def _starts_type(self, offset: int = 0) -> bool:
        token = self._peek(offset)
        if token.kind is _KEYWORD:
            return token.value in _TYPE_KEYWORDS or token.value in _QUALIFIERS or token.value in ("struct", "union", "enum")
        if token.kind is _IDENT:
            return token.value in self.typedef_names or token.value in self.struct_names
        return False

    def _looks_like_declaration(self) -> bool:
        """Heuristic for statement-level IDENT-led declarations."""
        token = self.tokens[self.pos]
        if token.kind is not _IDENT:
            return False
        if token.value in self.typedef_names:
            return True
        # IDENT IDENT ... ('=' | ';' | ',' | '[')
        if self._peek(1).kind is _IDENT:
            follow = self._peek(2)
            return follow.kind is _PUNCT and follow.value in ("=", ";", ",", "[")
        # IDENT '*'+ IDENT ('=' | ';' | ',')
        offset = 1
        while self._peek(offset).is_punct("*"):
            offset += 1
        if offset > 1 and self._peek(offset).kind is _IDENT:
            follow = self._peek(offset + 1)
            return follow.kind is _PUNCT and follow.value in ("=", ";", ",")
        return False

    def _parse_type(self) -> ast.Type:
        tokens = self.tokens
        while tokens[self.pos].kind is _KEYWORD and tokens[self.pos].value in _QUALIFIERS:
            self.pos += 1
        token = tokens[self.pos]
        base: ast.Type
        if token.kind is _KEYWORD and token.value in ("struct", "union"):
            self._advance()
            name_token = self._advance()
            if name_token.kind not in (_IDENT, _KEYWORD):
                raise self._error("expected struct name")
            self.struct_names.add(name_token.value)
            base = ast.StructType(name_token.value)
        elif token.is_keyword("enum"):
            self._advance()
            if tokens[self.pos].kind is _IDENT:
                self._advance()
            base = ast.NamedType("int")
        elif token.kind is _KEYWORD and token.value in _TYPE_KEYWORDS:
            words = [self._advance().value]
            while tokens[self.pos].kind is _KEYWORD and tokens[self.pos].value in _TYPE_KEYWORDS:
                words.append(self._advance().value)
            base = ast.NamedType(" ".join(words))
        elif token.kind is _IDENT:
            self._advance()
            base = ast.NamedType(token.value)
        else:
            raise self._error(f"expected a type, found {token.value!r}")
        while self._accept_punct("*"):
            base = ast.PointerType(base)
            while self._accept_keyword("const"):
                pass
        return base

    def _parse_attrs(self) -> tuple[str, ...]:
        """Parse zero or more GNU/C++ attribute specifiers."""
        attrs: list[str] = []
        while True:
            token = self.tokens[self.pos]
            if token.kind is _IDENT and token.value in ("__attribute__", "__attribute"):
                self._advance()
                self._expect_punct("(")
                self._expect_punct("(")
                depth = 0
                while True:
                    inner = self._advance()
                    if inner.kind is _EOF:
                        raise self._error("unterminated __attribute__")
                    if inner.is_punct("("):
                        depth += 1
                    elif inner.is_punct(")"):
                        if depth == 0:
                            break
                        depth -= 1
                    elif inner.kind in (_IDENT, _KEYWORD):
                        attrs.append(inner.value.strip("_"))
                self._expect_punct(")")
            elif token.is_punct("[") and self._peek(1).is_punct("["):
                self._advance()
                self._advance()
                while not self._check_punct("]"):
                    inner = self._advance()
                    if inner.kind is _EOF:
                        raise self._error("unterminated [[attribute]]")
                    if inner.kind in (_IDENT, _KEYWORD):
                        attrs.append(inner.value)
                self._expect_punct("]")
                self._expect_punct("]")
            else:
                return tuple(attrs)

    # -- expressions -------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> ast.Expr:
        left = self._parse_conditional()
        token = self.tokens[self.pos]
        if token.kind is _PUNCT and token.value in _ASSIGN_OPS:
            op = self._advance().value
            value = self._parse_assignment()
            return ast.Assign(line=token.line, op=op, target=left, value=value)
        return left

    def _parse_conditional(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self._check_punct("?"):
            token = self._advance()
            then = self.parse_expression()
            self._expect_punct(":")
            other = self._parse_conditional()
            return ast.Conditional(line=token.line, cond=cond, then=then, other=other)
        return cond

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            token = self.tokens[self.pos]
            precedence = _BINARY_PRECEDENCE.get(token.value) if token.kind is _PUNCT else None
            if precedence is None or precedence < min_precedence:
                return left
            self._advance()
            right = self._parse_binary(precedence + 1)
            left = ast.Binary(line=token.line, op=token.value, left=left, right=right)

    def _is_cast_ahead(self) -> bool:
        """At '(' — decide whether this opens a cast expression."""
        if not self._check_punct("("):
            return False
        if not self._starts_type(1):
            return False
        offset = 1
        depth = 0
        while True:
            token = self._peek(offset)
            if token.kind is _EOF:
                return False
            if token.kind is _PUNCT:
                if token.value == "(":
                    depth += 1
                elif token.value == ")":
                    if depth == 0:
                        break
                    depth -= 1
                elif token.value in (";", "{"):
                    return False
            offset += 1
        after = self._peek(offset + 1)
        # A cast is followed by an operand, never by an operator/terminator.
        if after.kind in (_IDENT, _INT, _CHAR, _STRING):
            return True
        if after.kind is _KEYWORD:
            return after.value in ("sizeof", "NULL")
        return after.kind is _PUNCT and after.value in ("(", "*", "&", "-", "!", "~")

    def _parse_unary(self) -> ast.Expr:
        token = self.tokens[self.pos]
        if token.kind is _PUNCT and token.value in ("!", "~", "-", "+", "*", "&", "++", "--"):
            self.pos += 1
            operand = self._parse_unary()
            return ast.Unary(line=token.line, op=token.value, operand=operand)
        if token.is_keyword("sizeof"):
            self._advance()
            if self._check_punct("(") and self._starts_type(1):
                self._advance()
                target = self._parse_type()
                self._expect_punct(")")
                return ast.SizeOf(line=token.line, operand=target)
            operand = self._parse_unary()
            return ast.SizeOf(line=token.line, operand=operand)
        if self._is_cast_ahead():
            self._advance()  # '('
            target = self._parse_type()
            self._expect_punct(")")
            operand = self._parse_unary()
            return ast.Cast(line=token.line, target_type=target, operand=operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self.tokens[self.pos]
            if token.kind is not _PUNCT:
                return expr
            op = token.value
            if op == "(":
                self.pos += 1
                args: list[ast.Expr] = []
                if not self._check_punct(")"):
                    args.append(self.parse_expression())
                    while self._accept_punct(","):
                        args.append(self.parse_expression())
                self._expect_punct(")")
                expr = ast.Call(line=token.line, callee=expr, args=args)
            elif op == "[":
                self.pos += 1
                index = self.parse_expression()
                self._expect_punct("]")
                expr = ast.Index(line=token.line, base=expr, index=index)
            elif op == "." or op == "->":
                self.pos += 1
                name = self._advance()
                expr = ast.Member(line=token.line, base=expr, field_name=name.value, arrow=op == "->")
            elif op == "++" or op == "--":
                self.pos += 1
                expr = ast.Postfix(line=token.line, op=op, operand=expr)
            else:
                return expr

    def _number(self, token: Token, integral: bool = False) -> int:
        """The value of an INT token.  Suffixes are dropped; a float literal
        is truncated, or rejected where ``integral`` asks for an integer."""
        text = token.value
        # 'f'/'F' is a hex digit, so only a decimal literal can carry it as a suffix.
        digits = text.rstrip("uUlL" if text[:2] in ("0x", "0X") else "uUlLfF")
        try:
            return int(digits, 0)
        except ValueError:
            if not integral:
                try:
                    return int(float(digits))
                except (ValueError, OverflowError):
                    pass
        raise ParseError(f"malformed number {text!r}", self.filename, token.line, token.column)

    def _parse_primary(self) -> ast.Expr:
        token = self.tokens[self.pos]
        kind = token.kind
        if kind is _IDENT:
            self.pos += 1
            return ast.Identifier(line=token.line, name=token.value)
        if kind is _INT:
            self.pos += 1
            return ast.IntLiteral(line=token.line, value=self._number(token), text=token.value)
        if kind is _CHAR:
            self.pos += 1
            return ast.CharLiteral(line=token.line, value=token.value)
        if kind is _STRING:
            self.pos += 1
            parts = [token.value]
            while self.tokens[self.pos].kind is _STRING:  # adjacent literal concat
                parts.append(self._advance().value)
            return ast.StringLiteral(line=token.line, value="".join(parts))
        if token.is_keyword("NULL"):
            self.pos += 1
            return ast.IntLiteral(line=token.line, value=0, text="NULL")
        if token.is_punct("("):
            self.pos += 1
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        raise self._error(f"unexpected token {token.value!r} in expression")

    # -- statements ----------------------------------------------------------

    def _parse_declarators(self, base_type: ast.Type) -> list[ast.Declarator]:
        declarators: list[ast.Declarator] = []
        while True:
            decl_type = base_type
            while self._accept_punct("*"):
                decl_type = ast.PointerType(decl_type)
            name_token = self._advance()
            if name_token.kind is not _IDENT:
                raise self._error(f"expected declarator name, found {name_token.value!r}")
            while self._check_punct("[") and not self._peek(1).is_punct("["):
                self.pos += 1
                length: int | None = None
                if self.tokens[self.pos].kind is _INT:
                    length = self._number(self._advance(), integral=True)
                self._expect_punct("]")
                decl_type = ast.ArrayType(decl_type, length)
            attrs = self._parse_attrs()
            init: ast.Expr | None = None
            if self._accept_punct("="):
                init = self.parse_expression()
            declarators.append(
                ast.Declarator(name=name_token.value, type=decl_type, init=init, attrs=attrs, line=name_token.line)
            )
            if not self._accept_punct(","):
                return declarators

    def parse_statement(self) -> ast.Stmt:
        token = self.tokens[self.pos]
        kind = token.kind
        if kind is _KEYWORD:
            parse_keyword_statement = _KEYWORD_STATEMENTS.get(token.value)
            if parse_keyword_statement is not None:
                self.pos += 1
                return parse_keyword_statement(self, token)
        elif kind is _PUNCT:
            if token.value == "{":
                return self.parse_block()
            if token.value == ";":
                self.pos += 1
                return ast.ExprStmt(line=token.line, expr=None)
        elif kind is _IDENT and self._peek(1).is_punct(":") and not self._peek(2).is_punct(":"):
            self.pos += 2
            inner = self.parse_statement() if not self._check_punct("}") else None
            return ast.LabelStmt(line=token.line, label=token.value, statement=inner)
        if self._starts_type() or self._looks_like_declaration():
            # Could still be an expression like a cast at statement level;
            # declarations always have an identifier declarator before ; or =.
            saved = self.pos
            try:
                if kind is _IDENT and token.value not in self.typedef_names:
                    self.typedef_names.add(token.value)  # heuristic type
                base_type = self._parse_type()
                declarators = self._parse_declarators(base_type)
                self._expect_punct(";")
                return ast.DeclStmt(line=token.line, declarators=declarators)
            except ParseError:
                self.pos = saved
        expr = self.parse_expression()
        self._expect_punct(";")
        return ast.ExprStmt(line=token.line, expr=expr)

    # Keyword statements: called just past the keyword ``token``.

    def _parse_if(self, token: Token) -> ast.IfStmt:
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        then = self.parse_statement()
        other: ast.Stmt | None = None
        if self._accept_keyword("else"):
            other = self.parse_statement()
        return ast.IfStmt(line=token.line, cond=cond, then=then, other=other)

    def _parse_while(self, token: Token) -> ast.WhileStmt:
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        body = self.parse_statement()
        return ast.WhileStmt(line=token.line, cond=cond, body=body)

    def _parse_do(self, token: Token) -> ast.WhileStmt:
        body = self.parse_statement()
        if not self._accept_keyword("while"):
            raise self._error("expected 'while' after do-body")
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.WhileStmt(line=token.line, cond=cond, body=body, do_while=True)

    def _parse_for(self, token: Token) -> ast.ForStmt:
        self._expect_punct("(")
        init: ast.Stmt | None = None
        if not self._check_punct(";"):
            if self._starts_type() or self._looks_like_declaration():
                base_type = self._parse_type()
                declarators = self._parse_declarators(base_type)
                init = ast.DeclStmt(line=token.line, declarators=declarators)
            else:
                init = ast.ExprStmt(line=token.line, expr=self.parse_expression())
        self._expect_punct(";")
        cond: ast.Expr | None = None
        if not self._check_punct(";"):
            cond = self.parse_expression()
        self._expect_punct(";")
        step: ast.Expr | None = None
        if not self._check_punct(")"):
            step = self.parse_expression()
            while self._accept_punct(","):  # comma-separated steps
                right = self.parse_expression()
                step = ast.Binary(line=right.line, op=",", left=step, right=right)
        self._expect_punct(")")
        body = self.parse_statement()
        return ast.ForStmt(line=token.line, init=init, cond=cond, step=step, body=body)

    def _parse_switch(self, token: Token) -> ast.SwitchStmt:
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        self._expect_punct("{")
        cases: list[ast.SwitchCase] = []
        current: ast.SwitchCase | None = None
        while not self._check_punct("}"):
            if self.tokens[self.pos].kind is _EOF:
                raise self._error("unterminated switch")
            if self._check_keyword("case"):
                case_token = self._advance()
                value = self.parse_expression()
                self._expect_punct(":")
                current = ast.SwitchCase(value=value, body=[], line=case_token.line)
                cases.append(current)
            elif self._check_keyword("default"):
                default_token = self._advance()
                self._expect_punct(":")
                current = ast.SwitchCase(value=None, body=[], line=default_token.line)
                cases.append(current)
            else:
                if current is None:
                    raise self._error("statement before first case label in switch")
                current.body.append(self.parse_statement())
        self._expect_punct("}")
        return ast.SwitchStmt(line=token.line, cond=cond, cases=cases)

    def _parse_return(self, token: Token) -> ast.ReturnStmt:
        value: ast.Expr | None = None
        if not self._check_punct(";"):
            value = self.parse_expression()
        self._expect_punct(";")
        return ast.ReturnStmt(line=token.line, value=value)

    def _parse_break(self, token: Token) -> ast.BreakStmt:
        self._expect_punct(";")
        return ast.BreakStmt(line=token.line)

    def _parse_continue(self, token: Token) -> ast.ContinueStmt:
        self._expect_punct(";")
        return ast.ContinueStmt(line=token.line)

    def _parse_goto(self, token: Token) -> ast.GotoStmt:
        label = self._advance()
        self._expect_punct(";")
        return ast.GotoStmt(line=token.line, label=label.value)

    def parse_block(self) -> ast.Block:
        open_token = self._expect_punct("{")
        statements: list[ast.Stmt] = []
        while not self._check_punct("}"):
            if self.tokens[self.pos].kind is _EOF:
                raise self._error("unterminated block")
            statements.append(self.parse_statement())
        self._expect_punct("}")
        return ast.Block(line=open_token.line, statements=statements)

    # -- top level -------------------------------------------------------------

    def _parse_struct_def(self) -> ast.StructDef:
        token = self._advance()  # 'struct' or 'union'
        name_token = self._advance()
        self.struct_names.add(name_token.value)
        self._expect_punct("{")
        fields: list[ast.StructField] = []
        while not self._check_punct("}"):
            field_type = self._parse_type()
            declarators = self._parse_declarators(field_type)
            self._expect_punct(";")
            for declarator in declarators:
                fields.append(ast.StructField(name=declarator.name, type=declarator.type, line=declarator.line))
        self._expect_punct("}")
        self._expect_punct(";")
        return ast.StructDef(name=name_token.value, fields=fields, line=token.line)

    def _parse_typedef(self) -> ast.TypedefDecl:
        token = self._advance()  # 'typedef'
        if self._check_keyword("struct") and self._peek(2).is_punct("{"):
            # typedef struct Name { ... } Alias;
            self._advance()
            tag = self._advance().value
            self.struct_names.add(tag)
            self._expect_punct("{")
            while not self._check_punct("}"):
                field_type = self._parse_type()
                self._parse_declarators(field_type)
                self._expect_punct(";")
            self._expect_punct("}")
            alias = self._advance().value
            self._expect_punct(";")
            self.typedef_names.add(alias)
            return ast.TypedefDecl(name=alias, aliased=ast.StructType(tag), line=token.line)
        aliased = self._parse_type()
        alias = self._advance().value
        self._expect_punct(";")
        self.typedef_names.add(alias)
        return ast.TypedefDecl(name=alias, aliased=aliased, line=token.line)

    @obs.traced("frontend.parse")
    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit(filename=self.filename)
        while self.tokens[self.pos].kind is not _EOF:
            token = self.tokens[self.pos]
            if token.is_keyword("typedef"):
                unit.typedefs.append(self._parse_typedef())
                continue
            if token.kind is _KEYWORD and token.value in ("struct", "union") and self._peek(2).is_punct("{"):
                unit.structs.append(self._parse_struct_def())
                continue
            storage: list[str] = []
            while token.kind is _KEYWORD and token.value in ("static", "extern", "inline"):
                storage.append(token.value)
                self.pos += 1
                token = self.tokens[self.pos]
            decl_type = self._parse_type()
            name_token = self._advance()
            if name_token.kind not in (_IDENT, _KEYWORD):
                raise self._error(f"expected a name at top level, found {name_token.value!r}")
            if self._check_punct("("):
                unit.functions.append(self._parse_function_rest(decl_type, name_token, tuple(storage)))
            else:
                self.pos -= 1  # put the name back; reuse declarator parsing
                declarators = self._parse_declarators(decl_type)
                self._expect_punct(";")
                for declarator in declarators:
                    unit.globals.append(
                        ast.GlobalVar(
                            name=declarator.name,
                            type=declarator.type,
                            init=declarator.init,
                            line=declarator.line,
                            attrs=declarator.attrs,
                        )
                    )
        return unit

    def _parse_function_rest(
        self, return_type: ast.Type, name_token: Token, storage: tuple[str, ...]
    ) -> ast.FunctionDef:
        self._expect_punct("(")
        params: list[ast.Param] = []
        if not self._check_punct(")"):
            if self._check_keyword("void") and self._peek(1).is_punct(")"):
                self._advance()
            else:
                while True:
                    if self._check_punct("..."):
                        self._advance()
                        break
                    param_type = self._parse_type()
                    param_token = self.tokens[self.pos]
                    param_name = ""
                    if param_token.kind is _IDENT:
                        self.pos += 1
                        param_name = param_token.value
                    while self._check_punct("[") and not self._peek(1).is_punct("["):
                        self.pos += 1
                        if self.tokens[self.pos].kind is _INT:
                            self.pos += 1
                        self._expect_punct("]")
                        param_type = ast.PointerType(param_type)
                    attrs = self._parse_attrs()
                    params.append(ast.Param(name=param_name, type=param_type, attrs=attrs, line=param_token.line))
                    if not self._accept_punct(","):
                        break
        self._expect_punct(")")
        self._parse_attrs()
        if self._accept_punct(";"):
            return ast.FunctionDef(
                name=name_token.value,
                return_type=return_type,
                params=params,
                body=None,
                line=name_token.line,
                end_line=name_token.line,
                storage=storage,
            )
        body = self.parse_block()
        end_line = self.tokens[self.pos - 1].line if self.pos > 0 else name_token.line
        return ast.FunctionDef(
            name=name_token.value,
            return_type=return_type,
            params=params,
            body=body,
            line=name_token.line,
            end_line=end_line,
            storage=storage,
        )


_KEYWORD_STATEMENTS = {
    "if": Parser._parse_if,
    "while": Parser._parse_while,
    "do": Parser._parse_do,
    "for": Parser._parse_for,
    "switch": Parser._parse_switch,
    "return": Parser._parse_return,
    "break": Parser._parse_break,
    "continue": Parser._parse_continue,
    "goto": Parser._parse_goto,
}


def parse_source(
    text: str,
    filename: str = "<memory>",
    config: set[str] | None = None,
) -> tuple[ast.TranslationUnit, PreprocessedSource]:
    """Preprocess and parse ``text``; returns the AST and the preprocessed
    source (whose conditional regions feed the config-dependency pruner)."""
    preprocessed = preprocess(text, filename=filename, config=config)
    tokens = tokenize(preprocessed.text, filename=filename)
    parser = Parser(tokens, filename=filename)
    unit = parser.parse_translation_unit()
    return unit, preprocessed
