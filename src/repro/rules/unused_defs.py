"""The paper's unused-definitions detector as the first rule pack.

A thin adapter: detection delegates verbatim to
:func:`repro.core.detector.detect_module`, so findings are byte-identical
to the pre-RulePack pipeline (asserted by a regression test)."""

from __future__ import annotations

from repro import obs
from repro.core.detector import detect_module
from repro.core.findings import Candidate, CandidateKind
from repro.ir.module import Module
from repro.pointer.value_flow import ValueFlowGraph
from repro.rules.base import RulePack

# The SARIF descriptions previously hardcoded in core/sarif.py — kept
# byte-identical so existing SARIF logs do not change under the port.
_DESCRIPTIONS = {
    CandidateKind.IGNORED_RETURN: "Return value ignored at a call site",
    CandidateKind.UNUSED_PARAM: "Parameter value never read",
    CandidateKind.OVERWRITTEN_ARG: "Parameter overwritten before being read",
    CandidateKind.OVERWRITTEN_DEF: "Definition overwritten on every path",
    CandidateKind.DEAD_STORE: "Definition dead at function exit",
}


class UnusedDefinitionsPack(RulePack):
    name = "unused_definitions"
    kinds = (
        CandidateKind.IGNORED_RETURN,
        CandidateKind.UNUSED_PARAM,
        CandidateKind.OVERWRITTEN_ARG,
        CandidateKind.OVERWRITTEN_DEF,
        CandidateKind.DEAD_STORE,
    )
    pruner_policy = None  # all strategies, the paper's pipeline
    resolution = "authorship"
    gate_policy = "block"

    @obs.traced("rules.detect")
    def detect(self, path: str, module: Module, vfg: ValueFlowGraph) -> list[Candidate]:
        return detect_module(module, vfg)

    def descriptions(self) -> dict[CandidateKind, str]:
        return dict(_DESCRIPTIONS)
