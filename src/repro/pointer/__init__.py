"""Pointer analysis and value-flow graphs.

The paper uses SVF's field-sensitive Andersen's analysis (§4.1, citing
Andersen [13] and Hind & Pioli [31] for the precision/scalability
trade-off) for two client queries:

* **alias check** — a definition whose variable is referenced by pointers
  may be used indirectly and must not be reported as unused;
* **indirect-call resolution** — function pointers are resolved through
  their points-to sets so authorship lookup can reach the pointees.

:mod:`repro.pointer.andersen` implements the inclusion-based solver over
the load/store IR; :mod:`repro.pointer.value_flow` layers the def-use /
alias queries the detector consumes.  :mod:`repro.pointer.sparse_vfg` is a
test oracle with no production caller, so this package does not import it.
"""

from repro.pointer.andersen import AndersenResult, NodeTable, analyze_module
from repro.pointer.andersen_reference import ReferenceAndersenResult, analyze_module_reference
from repro.pointer.steensgaard import SteensgaardResult, analyze_module_steensgaard
from repro.pointer.flow_sensitive import FlowSensitiveResult, analyze_module_flow_sensitive
from repro.pointer.value_flow import ValueFlowGraph, build_value_flow

__all__ = [
    "AndersenResult",
    "NodeTable",
    "analyze_module",
    "ReferenceAndersenResult",
    "analyze_module_reference",
    "SteensgaardResult",
    "analyze_module_steensgaard",
    "FlowSensitiveResult",
    "analyze_module_flow_sensitive",
    "ValueFlowGraph",
    "build_value_flow",
]
