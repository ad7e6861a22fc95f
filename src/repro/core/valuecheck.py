"""The ValueCheck facade: detection → authorship → pruning → ranking.

Every stage can be ablated through :class:`ValueCheckConfig`, which is how
the Table 6 experiment builds its "w/o Authorship", "w/o Familiarity" and
"w/o FA/DL/AC" groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.core.familiarity import DokModel, DokWeights, EaModel
from repro.core.findings import AuthorshipInfo, Candidate, Finding
from repro.core.project import Project
from repro.core.pruning import PruneContext, PruningPipeline, default_pipeline
from repro.core.ranking import rank_findings
from repro.core.report import Report
from repro.obs.clock import monotonic

if TYPE_CHECKING:
    from repro.engine import AnalysisEngine


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
    """Resolve candidates by blame alone, each as cross-scope.

    Semantic-rule candidates (use-after-free, resource leaks) carry their
    evidence in ``Candidate.evidence_lines``: the candidate line's author
    is set against the authors of the evidence sites, instead of the
    unused-definition scenario dispatch in :class:`CrossScopeResolver`.
    Classic candidates, which carry no evidence, come here under the
    ``use_authorship=False`` ablation; blame, when there is a
    repository, still names the author the ranking scores."""
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
        if candidate.evidence_lines:
            evidence_at = ", ".join(str(line) for line in candidate.evidence_lines)
            reason = f"{candidate.kind.value} evidence at line(s) {evidence_at}"
        else:
            reason = "authorship filtering disabled"
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
                    reason=reason,
                    peer_sites=len(candidate.evidence_lines),
                ),
            )
        )
    return findings


def _is_cross_scope(finding: Finding) -> bool:
    return finding.authorship is not None and finding.authorship.cross_scope


def _packs(config: ValueCheckConfig):
    """The enabled rule packs and the kinds they resolve semantically."""
    # Imported lazily: repro.rules pulls in repro.core, whose package
    # import reaches back into this module.
    from repro.rules.registry import resolve_rules, semantic_kinds

    packs = resolve_rules(config.rules)
    return packs, semantic_kinds(packs)


def _pipeline(config: ValueCheckConfig) -> PruningPipeline:
    return default_pipeline(
        enable=set(config.pruners) if config.pruners is not None else None,
        include_history=config.history_pruning,
    )


def settle(
    project: Project,
    candidates: list[Candidate],
    config: ValueCheckConfig,
    rev: int | str | None = None,
    metrics: obs.MetricsRegistry | None = None,
    provenance: obs.ProvenanceLog | None = None,
) -> list[Finding]:
    """The first half of every analysis's decision: resolve → prune.

    ``candidates`` are resolved (by the cross-scope resolver, or by
    :func:`resolve_semantic` for semantic kinds and under the
    ``use_authorship=False`` ablation) and the cross-scope ones pruned,
    so ``is_reported`` is final on every returned finding.  They come
    back in :func:`rank`'s partition order: cross-scope before local,
    classic before semantic kinds, candidate order within each part.
    ``provenance`` gets each finding's resolution and pruner verdicts.
    """
    packs, evidence_kinds = _packs(config)
    classic = [c for c in candidates if c.kind not in evidence_kinds]
    semantic = [c for c in candidates if c.kind in evidence_kinds]
    if config.use_authorship:
        decided = project.resolver(rev).resolve_all(classic)
        decided += resolve_semantic(project, semantic, rev)
    else:
        decided = resolve_semantic(project, classic + semantic, rev)
    if provenance is not None:
        for finding in decided:
            if finding.authorship is not None:
                provenance.set_resolution(finding.key, finding.authorship.provenance())
    cross = [finding for finding in decided if _is_cross_scope(finding)]
    rest = [finding for finding in decided if not _is_cross_scope(finding)]
    if metrics is not None:
        metrics.inc("resolve.cross_scope", len(cross))
        metrics.inc("resolve.local", len(rest))
    context = PruneContext(project=project, rev=rev, metrics=metrics, provenance=provenance)
    cross = _pipeline(config).apply(cross, context, rules=tuple(pack.name for pack in packs))
    return cross + rest


def rank(
    project: Project,
    findings: Sequence[Finding],
    config: ValueCheckConfig,
    rev: int | str | None = None,
    fresh: Sequence[Finding] = (),
    metrics: obs.MetricsRegistry | None = None,
    provenance: obs.ProvenanceLog | None = None,
) -> Report:
    """The second half of every analysis's decision: rank settled
    findings into a report.

    ``findings`` keep their order within each partition — cross-scope
    before local, classic before semantic kinds — which is cold
    detection order when they come from :func:`settle` or from a warm
    session's findings kept in detection order.  Reported findings are
    ranked by one familiarity model.  ``provenance`` gets the ranking
    slices, and ``finalize`` stamps the reported records and those of
    ``fresh`` (the findings settled for this report; the others'
    records are final already, and only ranks move).
    """
    # A tuple: containment tests identity first, sparing Enum.__hash__.
    semantic = tuple(_packs(config)[1])
    parts: tuple[list[Finding], ...] = ([], [], [], [])
    reported = 0
    for finding in findings:
        authorship = finding.authorship
        local = authorship is None or not authorship.cross_scope
        reported += not local and finding.pruned_by is None  # is_reported
        parts[2 * local + (finding.candidate.kind in semantic)].append(finding)
    model = None
    if project.repo is not None and config.familiarity_model == "ea":
        model = EaModel(project.repo)
    elif project.repo is not None:
        model = DokModel(project.repo, weights=config.dok_weights)
    ranked = rank_findings(
        [finding for part in parts for finding in part],
        model=model,
        until_rev=rev,
        use_familiarity=config.use_familiarity,
        metrics=metrics,
        provenance=provenance,
    )
    if provenance is not None:
        # rank_findings puts the reported findings first.
        provenance.finalize(
            ranked[:reported] + [finding for finding in fresh if not finding.is_reported]
        )
    return Report(
        project=project.name,
        findings=ranked,
        prune_stats=_pipeline(config).stats(ranked),
        provenance=provenance,
    )


class ValueCheck:
    """Run the full pipeline over a project snapshot."""

    def __init__(self, config: ValueCheckConfig | None = None):
        self.config = config or ValueCheckConfig()

    def _engine(self) -> "AnalysisEngine":
        # Imported lazily: the engine's scheduler imports repro.core,
        # whose package import reaches this module.
        from repro.engine import DEFAULT_CACHE, AnalysisEngine

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
            engine_run = self._engine().run(project, metrics=registry, provenance=provenance)
            registry.inc("detect.candidates", len(engine_run.candidates))
            settled = settle(
                project,
                engine_run.candidates,
                self.config,
                rev,
                metrics=registry,
                provenance=provenance,
            )
            report = rank(
                project,
                settled,
                self.config,
                rev,
                fresh=settled,
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
