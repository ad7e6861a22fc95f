"""Ablation E12: which pointer analysis should ValueCheck use?

The paper picks field-sensitive Andersen's for "better scalability
compared to flow-sensitive pointer analysis, while providing a small
difference in help detecting unused definitions" (§4.1, citing Hind &
Pioli).  This experiment swaps the alias-check substrate between
Steensgaard's (coarser/faster), Andersen's (the paper's choice) and a
flow-sensitive analysis (finer/slower) and measures detection output and
wall time on one application corpus."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.detector import detect_module
from repro.core.project import Project
from repro.pointer.andersen import analyze_module
from repro.pointer.andersen_reference import analyze_module_reference
from repro.pointer.flow_sensitive import analyze_module_flow_sensitive
from repro.pointer.steensgaard import analyze_module_steensgaard
from repro.pointer.value_flow import build_value_flow
from repro.obs.clock import monotonic

ANALYSES = {
    "steensgaard": analyze_module_steensgaard,
    "andersen": analyze_module,
    # The retained pre-interning solver: same fixpoint as "andersen", so
    # the candidate columns must match — the row exists to surface the
    # bitset solver's wall-time edge in the same table.
    "andersen-reference": analyze_module_reference,
    "flow-sensitive": analyze_module_flow_sensitive,
}


@dataclass(frozen=True)
class PointerRow:
    analysis: str
    candidates: int
    seconds: float


@dataclass
class PointerComparisonResult:
    app: str
    rows: list[PointerRow]

    def by_name(self, name: str) -> PointerRow:
        return next(row for row in self.rows if row.analysis == name)

    def render(self) -> str:
        width = max(len("Analysis"), *(len(row.analysis) for row in self.rows)) + 2
        lines = [
            f"Pointer-analysis ablation on {self.app} (§4.1 design choice)",
            f"{'Analysis':<{width}}{'#Candidates':>12}{'Time':>10}",
        ]
        for row in self.rows:
            lines.append(f"{row.analysis:<{width}}{row.candidates:>12}{row.seconds:>9.2f}s")
        andersen = self.by_name("andersen")
        flow = self.by_name("flow-sensitive")
        if andersen.candidates:
            delta = abs(flow.candidates - andersen.candidates) / andersen.candidates
            lines.append(
                f"flow-sensitive vs Andersen's candidate delta: {delta:.1%} "
                "(the paper's 'small difference')"
            )
        return "\n".join(lines)


def run(project: Project, app_name: str | None = None) -> PointerComparisonResult:
    rows = []
    for name, analyze in ANALYSES.items():
        started = monotonic()
        total = 0
        for path in sorted(project.sources):
            module = project.module(path)
            result = analyze(module)
            vfg = build_value_flow(module, andersen=result)
            total += len(detect_module(module, vfg))
        rows.append(
            PointerRow(analysis=name, candidates=total, seconds=monotonic() - started)
        )
    return PointerComparisonResult(app=app_name or project.name, rows=rows)
