"""The ValueCheck facade: detection → authorship → pruning → ranking.

Every stage can be ablated through :class:`ValueCheckConfig`, which is how
the Table 6 experiment builds its "w/o Authorship", "w/o Familiarity" and
"w/o FA/DL/AC" groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro import obs
from repro.core.familiarity import DokModel, DokWeights, EaModel
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


@obs.traced("core.resolve")
def resolve_semantic(
    project: Project, candidates: list[Candidate], rev: int | str | None
) -> list[Finding]:
    """Resolve semantic-rule candidates (use-after-free, resource leaks).

    These carry their evidence in ``Candidate.evidence_lines``; authorship
    reuses the blame machinery directly — the definition author against
    the authors of the evidence sites — instead of the unused-definition
    scenario dispatch in :class:`CrossScopeResolver`."""
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


def _without_authorship(
    project: Project, candidates: list[Candidate], rev: int | str | None
) -> list[Finding]:
    """The ``use_authorship=False`` ablation: every candidate counts as
    cross-scope; blame, when there is a repository, still names the
    author the ranking scores."""
    blame = project.blame_index(rev) if project.repo is not None else None
    findings = []
    for candidate in candidates:
        info = blame.line_info(candidate.file, candidate.line) if blame is not None else None
        author = info.author.name if info is not None else ""
        authorship = AuthorshipInfo(
            cross_scope=True,
            def_author=author,
            introducing_author=author,
            blamed_file=candidate.file,
            introduced_day=info.day if info is not None else -1,
            reason="authorship filtering disabled",
        )
        findings.append(Finding(candidate=candidate, authorship=authorship))
    return findings


def _is_cross_scope(finding: Finding) -> bool:
    return finding.authorship is not None and finding.authorship.cross_scope


def decide(
    project: Project,
    candidates: list[Candidate],
    config: ValueCheckConfig,
    rev: int | str | None = None,
    kept: Sequence[Finding] = (),
    metrics: obs.MetricsRegistry | None = None,
    provenance: obs.ProvenanceLog | None = None,
) -> Report:
    """The decision tail of every analysis: resolve → prune → rank.

    ``candidates`` are resolved (authorship or its ablation; semantic
    kinds by :func:`resolve_semantic`) and the cross-scope ones pruned.
    ``kept`` are findings decided earlier whose inputs did not change (a
    warm session's untouched functions); they must come in detection
    order.  All are ranked together in cold order: cross-scope before
    local, classic before semantic kinds, input order within each part.
    ``provenance`` gets every decided finding's slices and status; of
    the kept ones only the reported are restamped (only ranks move).
    """
    # Imported lazily: repro.rules pulls in repro.core, whose package
    # import reaches back into this module.
    from repro.rules.registry import resolve_rules, semantic_kinds

    packs = resolve_rules(config.rules)
    evidence_kinds = semantic_kinds(packs)
    classic = [c for c in candidates if c.kind not in evidence_kinds]
    semantic = [c for c in candidates if c.kind in evidence_kinds]
    if config.use_authorship:
        decided = project.resolver(rev).resolve_all(classic)
    else:
        decided = _without_authorship(project, classic, rev)
    decided += resolve_semantic(project, semantic, rev)
    if provenance is not None:
        for finding in decided:
            if finding.authorship is not None:
                provenance.set_resolution(finding.key, finding.authorship.provenance())
    cross = [finding for finding in decided if _is_cross_scope(finding)]
    rest = [finding for finding in decided if not _is_cross_scope(finding)]
    if metrics is not None:
        metrics.inc("resolve.cross_scope", len(cross))
        metrics.inc("resolve.local", len(rest))

    pipeline = default_pipeline(
        enable=set(config.pruners) if config.pruners is not None else None,
        min_increments=config.cursor_min_increments,
        peer_min_occurrences=config.peer_min_occurrences,
        peer_unused_fraction=config.peer_unused_fraction,
        include_history=config.history_pruning,
    )
    context = PruneContext(project=project, metrics=metrics, provenance=provenance)
    cross = pipeline.apply(cross, context, rules=tuple(pack.name for pack in packs))
    findings = sorted(
        [*kept, *cross, *rest],
        key=lambda f: (not _is_cross_scope(f), f.candidate.kind in evidence_kinds),
    )

    model = None
    if project.repo is not None and config.familiarity_model == "ea":
        model = EaModel(project.repo)
    elif project.repo is not None:
        model = DokModel(project.repo, weights=config.dok_weights)
    findings = rank_findings(
        findings,
        model=model,
        until_rev=rev,
        use_familiarity=config.use_familiarity,
        metrics=metrics,
        provenance=provenance,
    )
    if provenance is not None:
        fresh = {finding.key for finding in decided}
        provenance.finalize(
            [finding for finding in findings if finding.is_reported or finding.key in fresh]
        )
    return Report(
        project=project.name,
        findings=findings,
        prune_stats=pipeline.stats(findings),
        provenance=provenance,
    )


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
        single frontend → core.rank trace.  Pass ``telemetry`` explicitly to own
        the registry (e.g. to accumulate across runs deliberately).
        """
        started = monotonic()
        if telemetry is None:
            ambient = obs.current()
            tracer = ambient.tracer if ambient is not None else obs.Tracer()
            telemetry = obs.Telemetry(tracer=tracer, metrics=obs.MetricsRegistry())
        registry = telemetry.metrics
        provenance = obs.ProvenanceLog()
        with obs.use(telemetry), telemetry.tracer.span("core.pipeline", project=project.name):
            engine_run: EngineRun = self._engine().run(
                project, metrics=registry, provenance=provenance
            )
            registry.inc("detect.candidates", len(engine_run.candidates))
            report = decide(
                project,
                engine_run.candidates,
                self.config,
                rev,
                metrics=registry,
                provenance=provenance,
            )
        converged = not engine_run.stats.non_converged
        if not converged:
            registry.inc("andersen.non_converged_modules", len(engine_run.stats.non_converged))
        return replace(
            report,
            seconds=monotonic() - started,
            engine_stats=engine_run.stats,
            metrics=registry.snapshot(),
            trace=telemetry.tracer,
            converged=converged,
        )
