"""Per-module analysis unit of work.

Everything here is a pure function of its arguments so it can run on any
executor — including a process pool, where the argument tuple and the
returned :class:`ModuleResult` cross a pickle boundary.  A process-pool
worker gets the module's source text and does its only lowering;
lowering is deterministic, so the results are identical to analysing
the module in-process.

Telemetry: each worker records into a **module-local**
:class:`~repro.obs.MetricsRegistry` and ships the snapshot back inside
the :class:`ModuleResult` (a plain dict, so it pickles).  The scheduler
merges those snapshots in sorted path order, which is what makes the
merged registry identical across the serial and process executors.
In-process workers record their spans straight into the ambient tracer;
a process-pool worker records into a tracer of its own and ships the
spans in the result, which the scheduler grafts under ``engine.run``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import obs
from repro.core.findings import Candidate
from repro.core.project import ModuleContribution, build_contribution
from repro.ir.builder import lower_source
from repro.ir.module import Module
from repro.obs import MetricsRegistry
from repro.pointer.value_flow import build_value_flow


@dataclass
class ModuleResult:
    """One module's full per-module analysis output (picklable)."""

    path: str
    candidates: list[Candidate] = field(default_factory=list)
    contribution: ModuleContribution = field(default_factory=ModuleContribution)
    converged: bool = True
    # Worker-local metrics snapshot (repro.obs schema): Andersen
    # iteration counts and convergence counters for this module.
    metrics: dict | None = None
    # Deterministic detection-provenance slice: one plain dict per
    # candidate (repro.obs.provenance.detection_record).  Stored here —
    # not rebuilt by the scheduler — so content-cache hits replay the
    # exact records the original analysis produced.
    provenance: list[dict] = field(default_factory=list)
    # Spans a process-pool worker recorded, starts and ends on the host's
    # monotonic clock (empty for in-process analysis).
    spans: list[obs.Span] = field(default_factory=list)


@dataclass(frozen=True)
class ModuleJob:
    """A picklable work item: enough to rebuild the module anywhere."""

    path: str
    text: str
    build_config: tuple[str, ...]
    # Enabled rule packs (normalized names); None = every registered pack.
    rules: tuple[str, ...] | None = None


def analyze_lowered(
    path: str, module: Module, rules: tuple[str, ...] | None = None
) -> ModuleResult:
    """Analyse an already-lowered module in-process (serial executor).

    The module's value-flow graph lives only for this call: every rule
    pack and the index contribution read its per-function facts, so each
    is computed once."""
    # Imported lazily: repro.rules pulls in repro.core, whose package
    # import reaches back here through the engine facade.
    from repro.rules.registry import resolve_rules

    local = MetricsRegistry()
    packs = resolve_rules(rules)
    vfg = build_value_flow(module)
    candidates = []
    for pack in packs:
        found = pack.detect(path, module, vfg)
        local.inc("rules.candidates", len(found), rule=pack.name)
        candidates.extend(found)
    contribution = build_contribution(path, module, vfg)
    converged = vfg.andersen.converged
    local.inc("andersen.modules")
    local.observe("andersen.iterations", vfg.andersen.iterations)
    local.observe("andersen.bitset_nodes", vfg.andersen.nodes)
    local.inc("andersen.scc_collapsed", vfg.andersen.scc_collapsed)
    if not converged:
        local.inc("andersen.non_converged")
    return ModuleResult(
        path=path,
        candidates=candidates,
        contribution=contribution,
        converged=converged,
        metrics=local.snapshot(),
        provenance=[obs.detection_record(candidate) for candidate in candidates],
    )


def analyze_job(job: ModuleJob) -> ModuleResult:
    """Analyse from source text (process executors; module-level function
    so it pickles by reference), recording spans for the parent to graft."""
    tracer = obs.Tracer()
    with obs.use(obs.Telemetry(tracer=tracer)):
        module = lower_source(job.text, filename=job.path, config=set(job.build_config))
        result = analyze_lowered(job.path, module, rules=job.rules)
    result.spans = [
        replace(span, start=span.start + tracer.epoch, end=span.end + tracer.epoch)
        for span in tracer.spans()
    ]
    return result
