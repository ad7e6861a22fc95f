"""The ValueCheck facade: detection → authorship → pruning → ranking.

Every stage can be ablated through :class:`ValueCheckConfig`, which is how
the Table 6 experiment builds its "w/o Authorship", "w/o Familiarity" and
"w/o FA/DL/AC" groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import obs
from repro.core.familiarity import DokModel, DokWeights
from repro.core.findings import AuthorshipInfo, Candidate, Finding
from repro.core.project import Project
from repro.core.pruning import PruneContext, default_pipeline
from repro.core.ranking import rank_findings
from repro.core.report import Report
from repro.engine import DEFAULT_CACHE, AnalysisEngine, EngineRun
from repro.obs.clock import monotonic


@dataclass(frozen=True)
class ValueCheckConfig:
    """Knobs for the pipeline.

    ``use_authorship=False`` removes cross-scope filtering (every candidate
    is treated as reportable); ``pruners=None`` enables all four pruning
    strategies, a set restricts them, an empty set disables pruning;
    ``use_familiarity=False`` keeps detection order instead of DOK ranking;
    ``dok_weights`` supports the per-factor ablations.

    ``executor``/``workers`` select how per-module analysis is scheduled
    (``serial`` | ``process``); ``module_cache`` toggles the
    content-addressed result cache.  Findings are bit-identical across
    executors — the engine merges deterministically.
    """

    use_authorship: bool = True
    pruners: frozenset[str] | None = None
    use_familiarity: bool = True
    dok_weights: DokWeights = field(default_factory=DokWeights)
    peer_min_occurrences: int = 10
    peer_unused_fraction: float = 0.5
    cursor_min_increments: int = 2
    # §9 extensions (both off by default, matching the paper's tool):
    # the commit-history/comment pruner of §9.1 and the survey-free EA
    # familiarity model of §9.2.
    history_pruning: bool = False
    familiarity_model: str = "dok"  # 'dok' | 'ea'
    # Engine selection (parallel scheduling + content-addressed caching).
    executor: str = "serial"  # 'serial' | 'process'
    workers: int | None = None  # None → os.cpu_count()
    module_cache: bool = True
    # Enabled rule packs (see repro.rules); None = every registered pack.
    rules: tuple[str, ...] | None = None

    def without_factor(self, factor: str) -> "ValueCheckConfig":
        return replace(self, dok_weights=self.dok_weights.without(factor))


def resolve_semantic(
    project: Project, candidates: list[Candidate], rev: int | str | None
) -> list[Finding]:
    """Resolve semantic-rule candidates (use-after-free, resource leaks).

    These carry their evidence in ``Candidate.evidence_lines``; authorship
    reuses the blame machinery directly — the definition author against
    the authors of the evidence sites — instead of the unused-definition
    scenario dispatch in :class:`CrossScopeResolver`.  Shared by the full
    pipeline and the incremental analyzer so warm ``analyze_diff`` steps
    resolve identically to cold runs."""
    if not candidates:
        return []
    blame = project.blame_index(rev) if project.repo is not None else None
    findings: list[Finding] = []
    for candidate in candidates:
        def_author = ""
        introduced_day = -1
        counterparts: list[str] = []
        if blame is not None:
            info = blame.line_info(candidate.file, candidate.line)
            if info is not None:
                def_author = info.author.name
                introduced_day = info.day
            for line in candidate.evidence_lines:
                evidence = blame.line_info(candidate.file, line)
                if evidence is not None and evidence.author.name not in counterparts:
                    counterparts.append(evidence.author.name)
        evidence_at = ", ".join(str(line) for line in candidate.evidence_lines)
        findings.append(
            Finding(
                candidate=candidate,
                authorship=AuthorshipInfo(
                    cross_scope=True,
                    def_author=def_author,
                    counterpart_authors=tuple(counterparts),
                    introducing_author=def_author,
                    blamed_file=candidate.file,
                    introduced_day=introduced_day,
                    reason=f"{candidate.kind.value} evidence at line(s) {evidence_at}",
                    peer_sites=len(candidate.evidence_lines),
                ),
            )
        )
    return findings


class ValueCheck:
    """Run the full pipeline over a project snapshot."""

    def __init__(self, config: ValueCheckConfig | None = None):
        self.config = config or ValueCheckConfig()

    def _engine(self) -> AnalysisEngine:
        return AnalysisEngine(
            executor=self.config.executor,
            workers=self.config.workers,
            cache=DEFAULT_CACHE if self.config.module_cache else None,
            rules=self.config.rules,
        )

    def detect_candidates(self, project: Project) -> list[Candidate]:
        """Stage 1: raw unused definitions from every module."""
        return self._engine().run(project).candidates

    def _resolve_semantic(
        self, project: Project, candidates: list[Candidate], rev: int | str | None
    ) -> list[Finding]:
        return resolve_semantic(project, candidates, rev)

    def _resolve_authorship(
        self, project: Project, candidates: list[Candidate], rev: int | str | None
    ) -> list[Finding]:
        """Stage 2: cross-scope resolution (or its ablation)."""
        if self.config.use_authorship:
            return project.resolver(rev).resolve_all(candidates)
        blame = project.blame_index(rev) if project.repo is not None else None
        findings = []
        for candidate in candidates:
            author_name = ""
            introduced_day = -1
            if blame is not None:
                info = blame.line_info(candidate.file, candidate.line)
                if info is not None:
                    author_name = info.author.name
                    introduced_day = info.day
            findings.append(
                Finding(
                    candidate=candidate,
                    authorship=AuthorshipInfo(
                        cross_scope=True,
                        def_author=author_name,
                        introducing_author=author_name,
                        blamed_file=candidate.file,
                        introduced_day=introduced_day,
                        reason="authorship filtering disabled",
                    ),
                )
            )
        return findings

    def analyze(
        self,
        project: Project,
        rev: int | str | None = None,
        telemetry: obs.Telemetry | None = None,
    ) -> Report:
        """Run all stages and return the report.

        Telemetry: every call records into a **fresh** metrics registry
        (re-entrant ``analyze`` calls never double-count), while spans
        join the ambient tracer when one is active — so a caller that
        wraps project construction + analysis in ``obs.use(...)`` gets a
        single parse→rank trace.  Pass ``telemetry`` explicitly to own
        the registry (e.g. to accumulate across runs deliberately).
        """
        started = monotonic()
        if telemetry is None:
            ambient = obs.current()
            tracer = ambient.tracer if ambient is not None else obs.Tracer()
            telemetry = obs.Telemetry(tracer=tracer, metrics=obs.MetricsRegistry())
        registry = telemetry.metrics
        provenance = obs.ProvenanceLog()
        with obs.use(telemetry), telemetry.tracer.span("analyze", project=project.name):
            engine_run: EngineRun = self._engine().run(
                project, metrics=registry, provenance=provenance
            )
            candidates = engine_run.candidates
            registry.inc("detect.candidates", len(candidates))

            # Imported lazily: repro.rules pulls in repro.core, whose
            # package import reaches back into this module.
            from repro.rules.registry import resolve_rules, semantic_kinds

            packs = resolve_rules(self.config.rules)
            evidence_kinds = semantic_kinds(packs)
            with telemetry.tracer.span("resolve"):
                classic = [c for c in candidates if c.kind not in evidence_kinds]
                semantic = [c for c in candidates if c.kind in evidence_kinds]
                findings = self._resolve_authorship(project, classic, rev)
                findings += self._resolve_semantic(project, semantic, rev)
            for finding in findings:
                if finding.authorship is not None:
                    provenance.set_resolution(finding.key, finding.authorship.provenance())
            cross = [f for f in findings if f.authorship and f.authorship.cross_scope]
            rest = [f for f in findings if not (f.authorship and f.authorship.cross_scope)]
            registry.inc("resolve.cross_scope", len(cross))
            registry.inc("resolve.local", len(rest))

            pipeline = default_pipeline(
                enable=set(self.config.pruners) if self.config.pruners is not None else None,
                min_increments=self.config.cursor_min_increments,
                peer_min_occurrences=self.config.peer_min_occurrences,
                peer_unused_fraction=self.config.peer_unused_fraction,
                include_history=self.config.history_pruning,
            )
            context = PruneContext(project=project, metrics=registry, provenance=provenance)
            with telemetry.tracer.span("prune"):
                cross = pipeline.apply(
                    cross, context, rules=tuple(pack.name for pack in packs)
                )
            prune_stats = pipeline.stats(cross)
            findings = cross + rest

            model = None
            if project.repo is not None:
                if self.config.familiarity_model == "ea":
                    from repro.core.familiarity import EaModel

                    model = EaModel(project.repo)
                else:
                    model = DokModel(project.repo, weights=self.config.dok_weights)
            with telemetry.tracer.span("rank"):
                findings = rank_findings(
                    findings,
                    model=model,
                    until_rev=rev,
                    use_familiarity=self.config.use_familiarity,
                    metrics=registry,
                    provenance=provenance,
                )
            provenance.finalize(findings)
        converged = not engine_run.stats.non_converged
        if not converged:
            registry.inc("andersen.non_converged_modules", len(engine_run.stats.non_converged))
        seconds = monotonic() - started
        registry.observe("analyze.run_seconds", seconds)
        return Report(
            project=project.name,
            findings=findings,
            prune_stats=prune_stats,
            seconds=seconds,
            engine_stats=engine_run.stats,
            metrics=registry.snapshot(),
            trace=telemetry.tracer,
            converged=converged,
            provenance=provenance,
        )
