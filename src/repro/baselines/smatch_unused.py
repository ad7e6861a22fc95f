"""Smatch unused-return-value emulation (paper §8.4.3).

Behaviour modelled from the paper:

* Smatch is a kernel tool: it "reports compilation error on all
  applications except Linux" — we require the kernel marker macro;
* "It only detects unused return values among unused definitions": a call
  whose result is discarded at statement level;
* "It conducts analysis based on the AST parser instead of control flow
  analysis, so the analysis is not precise and has high false positives":
  a variable assigned a call result counts as *used* if it is referenced
  anywhere in the function (Figure 8's ``if (ret)`` masks every ``ret``
  definition), and no pruning of any kind is applied, so benign ignored
  calls (logging etc.) are all reported.
"""

from __future__ import annotations

from repro.baselines.common import BaselineReport, BaselineWarning, project_has_marker
from repro.core.project import Project
from repro.errors import AnalysisUnsupported
from repro.frontend import ast_nodes as ast

_TOOL = "smatch"


def _statement_calls(stmt: ast.Stmt):
    """Yield calls whose value is discarded at statement level."""
    if isinstance(stmt, ast.Block):
        for inner in stmt.statements:
            yield from _statement_calls(inner)
    elif isinstance(stmt, ast.ExprStmt):
        if isinstance(stmt.expr, ast.Call):
            yield stmt.expr
    elif isinstance(stmt, ast.IfStmt):
        yield from _statement_calls(stmt.then)
        if stmt.other is not None:
            yield from _statement_calls(stmt.other)
    elif isinstance(stmt, (ast.WhileStmt, ast.ForStmt)):
        yield from _statement_calls(stmt.body)
    elif isinstance(stmt, ast.LabelStmt) and stmt.statement is not None:
        yield from _statement_calls(stmt.statement)


class SmatchUnused:
    name = "smatch"

    def analyze(self, project: Project) -> BaselineReport:
        if not project_has_marker(project):
            raise AnalysisUnsupported("smatch: compilation errors outside the kernel tree")
        report = BaselineReport(tool=_TOOL)
        for path in sorted(project.sources):
            module = project.module(path)
            if module.unit is None:
                continue
            for fn in module.unit.functions:
                if fn.body is None:
                    continue
                for call in _statement_calls(fn.body):
                    callee = call.callee.name if isinstance(call.callee, ast.Identifier) else "<ptr>"
                    if module.callee_return_type(callee) == "void":
                        continue
                    report.warnings.append(
                        BaselineWarning(
                            _TOOL, "unchecked-return", path, fn.name, callee, call.line
                        )
                    )
        return report
