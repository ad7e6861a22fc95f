"""The analysis engine: cache-aware, parallel per-module scheduling.

One :meth:`AnalysisEngine.run` call takes a project and produces every
per-module analysis artifact — detection candidates, index contributions,
solver convergence — by:

1. probing the content-addressed :class:`ResultCache` for each module
   (key: path + source text + build config, see :mod:`repro.engine.cache`),
2. fanning the misses across the configured executor
   (``serial`` | ``process``), and
3. merging results **in sorted path order**, so the output is bit-identical
   to a sequential run no matter how many workers raced.

Contributions are installed into the project's per-module cache, which
means ``project.index`` afterwards assembles without recomputing anything.

Telemetry: ``run`` records into a per-run :class:`MetricsRegistry`
(supplied by the caller, or fresh) — hit/miss counters and, via the
worker snapshots, Andersen iteration/convergence stats.  Worker snapshots
hold content facts only, so fresh results and cache hits merge alike,
in sorted path order.  Timings are spans: everything a run does nests
under its ``engine.run`` span, including the spans process-pool workers
ship back.  :class:`EngineStats` remains as a legacy summary view of
the same run, kept for ``Report.engine_stats`` compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.findings import Candidate
from repro.core.project import Project
from repro.engine.cache import DEFAULT_CACHE, ResultCache, module_key
from repro.engine.executors import make_executor
from repro.engine.worker import ModuleJob, ModuleResult, analyze_job, analyze_lowered
from repro.obs import MetricsRegistry
from repro.obs.clock import monotonic


@dataclass(frozen=True)
class EngineStats:
    """What one engine run did, for reports and benchmarks.

    Legacy summary view: the per-run :class:`MetricsRegistry` (see
    ``EngineRun.metrics`` / ``Report.metrics``) carries the same facts
    plus histograms; this dataclass survives for established callers.
    """

    executor: str = "serial"
    workers: int = 1
    modules: int = 0
    analyzed: int = 0  # cache misses actually computed
    cache_hits: int = 0
    cache_misses: int = 0
    seconds: float = 0.0
    non_converged: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "executor": self.executor,
            "workers": self.workers,
            "modules": self.modules,
            "analyzed": self.analyzed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "seconds": self.seconds,
            "non_converged": list(self.non_converged),
        }


@dataclass
class EngineRun:
    """Merged output of one scheduling round."""

    candidates: list[Candidate] = field(default_factory=list)
    by_path: dict[str, ModuleResult] = field(default_factory=dict)
    stats: EngineStats = field(default_factory=EngineStats)
    # Per-run metrics registry (fresh per run unless the caller shares
    # one): the authoritative accounting superseding ``stats``.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)


class AnalysisEngine:
    """Schedules per-module analysis over an executor with result reuse.

    ``cache=None`` disables content-addressed reuse (every module is
    recomputed); modules without retained source text are likewise
    computed fresh since they cannot be content-addressed.
    """

    def __init__(
        self,
        executor: str = "serial",
        workers: int | None = None,
        cache: ResultCache | None = DEFAULT_CACHE,
        rules: tuple[str, ...] | None = None,
    ):
        # Imported lazily: repro.rules pulls in repro.core, whose package
        # import reaches back into the engine facade.
        from repro.rules.registry import normalize_rules

        self.executor = make_executor(executor, workers)
        self.cache = cache
        # Normalized through the registry so `None` and an explicit
        # all-packs selection produce identical jobs and cache keys.
        self.rules = normalize_rules(rules)

    def run(
        self,
        project: Project,
        paths: list[str] | None = None,
        metrics: MetricsRegistry | None = None,
        provenance: "obs.ProvenanceLog | None" = None,
    ) -> EngineRun:
        started = monotonic()
        registry = metrics if metrics is not None else MetricsRegistry()
        if paths is None:
            paths = sorted(project.modules)
        else:
            paths = [path for path in paths if path in project.modules]

        run = EngineRun(metrics=registry)
        hits = 0
        keys: dict[str, str] = {}
        pending: list[str] = []
        with obs.span(
            "engine.run", executor=self.executor.kind, modules=len(paths)
        ) as run_span:
            for path in paths:
                module = project.modules[path]
                text = module.source.raw if module.source is not None else None
                if self.cache is not None and text is not None:
                    key = module_key(path, text, project.build_config, rules=self.rules)
                    keys[path] = key
                    cached = self.cache.get(key)
                    outcome = "hit" if cached is not None else "miss"
                    registry.inc("engine.cache.lookups", outcome=outcome)
                    if cached is not None:
                        run.by_path[path] = cached
                        hits += 1
                        continue
                pending.append(path)

            for path, result in zip(pending, self._compute(project, pending)):
                run.by_path[path] = result
                if self.cache is not None and path in keys:
                    self.cache.put(keys[path], result)
                if run_span is not None:
                    _graft(obs.current().tracer, result.spans, run_span.span_id)

            # Deterministic merge: sorted path order, regardless of executor.
            for path in paths:
                result = run.by_path[path]
                run.candidates.extend(result.candidates)
                project._contribs[path] = result.contribution
                if provenance is not None:
                    # Cache hits replay the stored slice; fresh results
                    # ship the one the worker just built.  Either way the
                    # records are pure content facts, so the merged log is
                    # identical across executors and cache states.
                    provenance.merge_detections(result.provenance)
                if result.metrics is not None:
                    registry.merge(result.metrics)

        registry.inc("engine.runs")
        registry.inc("engine.modules", len(paths))
        registry.inc("engine.modules_analyzed", len(pending))
        registry.set_gauge("engine.workers", self.executor.workers)
        seconds = monotonic() - started
        run.stats = EngineStats(
            executor=self.executor.kind,
            workers=self.executor.workers,
            modules=len(paths),
            analyzed=len(pending),
            cache_hits=hits,
            cache_misses=len(pending),
            seconds=seconds,
            non_converged=tuple(
                path for path in paths if not run.by_path[path].converged
            ),
        )
        return run

    def _compute(self, project: Project, paths: list[str]) -> list[ModuleResult]:
        if not paths:
            return []
        if self.executor.kind == "process":
            jobs: list[ModuleJob] = []
            local: list[str] = []
            for path in paths:
                module = project.modules[path]
                if module.source is not None:
                    jobs.append(
                        ModuleJob(
                            path=path,
                            text=module.source.raw,
                            build_config=tuple(sorted(project.build_config)),
                            rules=self.rules,
                        )
                    )
                else:
                    local.append(path)
            results = {r.path: r for r in self.executor.map(analyze_job, jobs)}
            # Source-less modules cannot cross the pickle boundary as text;
            # analyse them in-process.
            for path in local:
                results[path] = analyze_lowered(
                    path, project.modules[path], project.vfg(path), rules=self.rules
                )
            return [results[path] for path in paths]

        def compute(path: str) -> ModuleResult:
            return analyze_lowered(
                path, project.modules[path], project.vfg(path), rules=self.rules
            )

        return self.executor.map(compute, paths)


def _graft(tracer: obs.Tracer, spans: list[obs.Span], parent_id: int) -> None:
    """Add a worker's spans (host monotonic clock) to ``tracer``: its
    roots under ``parent_id``, the rest under their grafted parents."""
    grafted: dict[int, int] = {}
    for span in sorted(spans, key=lambda span: span.span_id):
        record = tracer.add_span(
            span.name,
            span.start - tracer.epoch,
            span.end - tracer.epoch,
            parent_id=grafted.get(span.parent_id, parent_id),
            **span.attrs,
        )
        grafted[span.span_id] = record.span_id
