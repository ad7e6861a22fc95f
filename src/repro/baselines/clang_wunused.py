"""Clang ``-Wunused`` emulation (paper §8.4.1).

"Clang does not perform a precise analysis to detect unused definitions
but just depends on recursive AST walking.  It follows gcc as the
specification and only detects a variable as unused when it never gets
referred to on the right-hand side."

Two warnings are modelled:

* ``-Wunused-variable`` — a local that is declared and never mentioned
  again at all;
* ``-Wunused-but-set-variable`` — a local that only ever appears as an
  assignment target.

Any use — even one that a flow-sensitive analysis would prove dead —
suppresses the warning, which is exactly why Clang finds none of the
bugs ValueCheck reports on well-maintained code bases."""

from __future__ import annotations

from repro.baselines.common import BaselineReport, BaselineWarning
from repro.core.project import Project
from repro.frontend import ast_nodes as ast

_TOOL = "clang"


class _UseCollector:
    """Counts reads and writes of each identifier in a function body."""

    def __init__(self) -> None:
        self.reads: dict[str, int] = {}
        self.writes: dict[str, int] = {}

    def _read(self, name: str) -> None:
        self.reads[name] = self.reads.get(name, 0) + 1

    def _write(self, name: str) -> None:
        self.writes[name] = self.writes.get(name, 0) + 1

    def visit_expr(self, expr: ast.Expr | None, as_target: bool = False) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.Identifier):
            if as_target:
                self._write(expr.name)
            else:
                self._read(expr.name)
        elif isinstance(expr, ast.Assign):
            self.visit_expr(expr.target, as_target=True)
            if expr.op != "=":  # compound assignments read the target too
                self.visit_expr(expr.target)
            self.visit_expr(expr.value)
        elif isinstance(expr, (ast.Unary, ast.Postfix)):
            # ++/-- both read and write; &x and *p read.
            if isinstance(expr, ast.Postfix) or expr.op in ("++", "--"):
                self.visit_expr(expr.operand, as_target=True)
                self.visit_expr(expr.operand)
            else:
                self.visit_expr(expr.operand)
        elif isinstance(expr, ast.Binary):
            self.visit_expr(expr.left)
            self.visit_expr(expr.right)
        elif isinstance(expr, ast.Conditional):
            self.visit_expr(expr.cond)
            self.visit_expr(expr.then)
            self.visit_expr(expr.other)
        elif isinstance(expr, ast.Call):
            self.visit_expr(expr.callee)
            for argument in expr.args:
                self.visit_expr(argument)
        elif isinstance(expr, ast.Member):
            self.visit_expr(expr.base, as_target=as_target)
        elif isinstance(expr, ast.Index):
            self.visit_expr(expr.base)
            self.visit_expr(expr.index)
        elif isinstance(expr, ast.Cast):
            self.visit_expr(expr.operand)
        elif isinstance(expr, ast.SizeOf) and isinstance(expr.operand, ast.Expr):
            self.visit_expr(expr.operand)

    def visit_stmt(self, stmt: ast.Stmt | None) -> None:
        if stmt is None:
            return
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self.visit_stmt(inner)
        elif isinstance(stmt, ast.DeclStmt):
            for declarator in stmt.declarators:
                self.visit_expr(declarator.init)
        elif isinstance(stmt, ast.ExprStmt):
            self.visit_expr(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            self.visit_expr(stmt.cond)
            self.visit_stmt(stmt.then)
            self.visit_stmt(stmt.other)
        elif isinstance(stmt, ast.WhileStmt):
            self.visit_expr(stmt.cond)
            self.visit_stmt(stmt.body)
        elif isinstance(stmt, ast.ForStmt):
            self.visit_stmt(stmt.init)
            self.visit_expr(stmt.cond)
            self.visit_expr(stmt.step)
            self.visit_stmt(stmt.body)
        elif isinstance(stmt, ast.ReturnStmt):
            self.visit_expr(stmt.value)
        elif isinstance(stmt, ast.LabelStmt):
            self.visit_stmt(stmt.statement)


class ClangWunused:
    """Run the -Wunused emulation over a project."""

    name = "clang"

    def analyze(self, project: Project) -> BaselineReport:
        report = BaselineReport(tool=_TOOL)
        for path in sorted(project.sources):
            module = project.module(path)
            if module.unit is None:
                continue
            for fn in module.unit.functions:
                if fn.body is None:
                    continue
                collector = _UseCollector()
                collector.visit_stmt(fn.body)
                locals_seen: dict[str, tuple[int, tuple[str, ...]]] = {}
                for stmt in _all_decls(fn.body):
                    for declarator in stmt.declarators:
                        locals_seen[declarator.name] = (declarator.line, declarator.attrs)
                for name, (line, attrs) in sorted(locals_seen.items()):
                    if any("unused" in attr for attr in attrs):
                        continue
                    reads = collector.reads.get(name, 0)
                    writes = collector.writes.get(name, 0)
                    if reads == 0 and writes == 0:
                        report.warnings.append(
                            BaselineWarning(_TOOL, "unused-variable", path, fn.name, name, line)
                        )
                    elif reads == 0 and writes > 0:
                        report.warnings.append(
                            BaselineWarning(
                                _TOOL, "unused-but-set-variable", path, fn.name, name, line
                            )
                        )
        return report


def _all_decls(stmt: ast.Stmt):
    if isinstance(stmt, ast.DeclStmt):
        yield stmt
    elif isinstance(stmt, ast.Block):
        for inner in stmt.statements:
            yield from _all_decls(inner)
    elif isinstance(stmt, ast.IfStmt):
        yield from _all_decls(stmt.then)
        if stmt.other is not None:
            yield from _all_decls(stmt.other)
    elif isinstance(stmt, (ast.WhileStmt, ast.ForStmt)):
        if isinstance(stmt, ast.ForStmt) and stmt.init is not None:
            yield from _all_decls(stmt.init)
        yield from _all_decls(stmt.body)
    elif isinstance(stmt, ast.LabelStmt) and stmt.statement is not None:
        yield from _all_decls(stmt.statement)
