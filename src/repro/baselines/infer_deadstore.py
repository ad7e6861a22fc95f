"""fb-infer "Dead Store" emulation (paper §8.4.2).

Behaviour modelled from the paper's comparison:

* flow-sensitive dead stores to locals — found (the core overlap with
  ValueCheck's overwritten-definition scenario);
* "incomplete in detecting all types of unused definitions in programs
  like overwritten/ignored arguments and field unused definitions" —
  parameters and field pseudo-variables are skipped;
* ignored return values at statement calls are not Dead Store material;
* "Cursor assignments … are not excluded from fb-infer results" — no
  cursor pruning, so cursors surface as false positives;
* no cross-scope filtering — same-author dead stores are reported, which
  developers "typically do not confirm … as bugs";
* declaration initialisers are suppressed (the real tool whitelists
  common initialise-then-assign idioms), as are explicitly hinted
  variables;
* errors out on kernel code bases (the kernel's build system defeats the
  tool), reproducing the ``-*`` cell for Linux.
"""

from __future__ import annotations

from repro.baselines.common import BaselineReport, BaselineWarning, project_has_marker
from repro.core.project import Project
from repro.dataflow.liveness import unused_definitions
from repro.errors import AnalysisUnsupported
from repro.ir.instructions import StoreKind

_TOOL = "infer"
_HINTS = ("unused", "maybe_unused")


class InferDeadStore:
    name = "infer"

    def analyze(self, project: Project) -> BaselineReport:
        if project_has_marker(project):
            raise AnalysisUnsupported(
                "infer: capture failed — unsupported kernel build constructs"
            )
        report = BaselineReport(tool=_TOOL)
        for path in sorted(project.sources):
            module = project.module(path)
            for name in sorted(module.functions):
                function = module.functions[name]
                for plain in unused_definitions(function, include_params=False):
                    if plain.kind is StoreKind.DECL_INIT:
                        continue  # init-then-assign idiom is whitelisted
                    if "#" in plain.var:
                        continue  # not field-sensitive
                    info = function.var(plain.var)
                    if info is not None and any(h in a for a in info.attrs for h in _HINTS):
                        continue
                    report.warnings.append(
                        BaselineWarning(
                            _TOOL, "dead-store", path, function.name, plain.var, plain.line
                        )
                    )
        return report
