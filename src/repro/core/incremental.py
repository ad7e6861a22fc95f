"""Incremental per-commit analysis (paper §8.6).

"This overhead could be reduced by running the analysis incrementally,
i.e., only on the changed functions and the affected files in a commit."

The analyzer keeps a warm :class:`~repro.core.project.Project`; replaying
a commit re-parses only the touched files, determines which functions the
diff actually reached, and settles those functions alone
(:func:`~repro.core.valuecheck.settle`: resolve → prune) — pruning and
authorship still see the full project index, which is patched with the
changed modules' contributions, not rebuilt.  The analysis set also takes
in every function whose verdict can move without a diff reaching it:
callers of changed functions, and functions whose candidates read an
index entry the patch changed."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro import obs
from repro.core.findings import CandidateKind, Finding
from repro.core.project import IndexChanges, Project
from repro.core.valuecheck import ValueCheckConfig, rank, settle
from repro.errors import VcsError
from repro.obs.clock import monotonic
from repro.ir.builder import lower_source
from repro.vcs.diff import myers_diff
from repro.vcs.objects import Commit
from repro.vcs.repository import Repository

if TYPE_CHECKING:
    from repro.engine.scheduler import EngineStats
    from repro.engine.worker import ModuleResult


@dataclass
class IncrementalResult:
    commit_id: str
    changed_files: list[str] = field(default_factory=list)
    changed_functions: list[str] = field(default_factory=list)
    # The re-analysed functions' findings: settled (``is_reported`` is
    # final) by ``analyze_changes``, and ranked among themselves by
    # ``replay_next``.
    findings: list[Finding] = field(default_factory=list)
    # Monotonic-clock duration of this incremental step (see
    # repro.obs.clock — never wall-clock, daemons run across NTP slews).
    seconds: float = 0.0
    # Every (file, function) the step actually re-analysed: the changed
    # functions plus widened callers (and, under ``full_modules``, the
    # untouched siblings in changed files).
    analyzed_functions: list[tuple[str, str]] = field(default_factory=list)
    deleted_files: list[str] = field(default_factory=list)
    # What the engine pass did — warm-state consumers (the analysis
    # service, benchmarks) assert cache hits/misses from this.
    engine_stats: EngineStats | None = None
    # Decision records of the re-analysed functions' candidates only: a
    # warm session splices them over its last report's records.
    provenance: obs.ProvenanceLog = field(default_factory=obs.ProvenanceLog)

    def reported(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.is_reported]


def commit_changes(commit: Commit) -> dict[str, str | None]:
    """The C sources one commit touches: path → new text (None = deleted)."""
    return {path: text for path, text in commit.changes.items() if path.endswith(".c")}


def changed_line_ranges(old_text: str, new_text: str) -> list[tuple[int, int]]:
    """1-based inclusive line ranges of ``new_text`` touched by the edit."""
    old_lines = old_text.split("\n")
    new_lines = new_text.split("\n")
    ranges: list[tuple[int, int]] = []
    for op in myers_diff(old_lines, new_lines):
        if op.tag == "equal":
            continue
        if op.tag == "delete":
            # Deletion touches the seam: attribute to the following line.
            anchor = min(op.j1 + 1, len(new_lines)) or 1
            ranges.append((anchor, anchor))
        else:
            ranges.append((op.j1 + 1, op.j2))
    return ranges


class IncrementalAnalyzer:
    """Replay commits one by one, analysing only what changed."""

    def __init__(
        self,
        repo: Repository,
        start_rev: int | str,
        build_config: set[str] | None = None,
        config: ValueCheckConfig | None = None,
    ):
        rev = repo.rev_index(start_rev)
        project = Project.from_repository(repo, rev=rev, build_config=build_config)
        self._bind(project, rev, config)

    @classmethod
    def from_project(
        cls,
        project: Project,
        config: ValueCheckConfig | None = None,
        rev: int | str | None = None,
    ) -> "IncrementalAnalyzer":
        """Warm incremental state over an already-built project.

        ``rev`` is the revision the project was materialised at (HEAD
        when omitted).  The analysis service opens projects from loose
        source trees as well as repositories; without a repository only
        :meth:`analyze_changes` is usable, and only with
        ``use_authorship=False`` (there is nothing to blame)."""
        analyzer = cls.__new__(cls)
        start = project.repo.rev_index(rev) if project.repo is not None else -1
        analyzer._bind(project, start, config)
        return analyzer

    def _bind(self, project: Project, rev: int, config: ValueCheckConfig | None) -> None:
        # Imported lazily: the engine's scheduler imports repro.core,
        # whose package import reaches this module.
        from repro.engine import DEFAULT_CACHE, AnalysisEngine

        self.repo = project.repo
        self.config = config or ValueCheckConfig()
        self.current_rev = rev
        self.project = project
        # Per-module work (detection + index contributions) goes through
        # the engine so replaying a commit that reverts a file — or
        # re-replaying a commit — hits the content-addressed cache.
        self.engine = AnalysisEngine(
            executor=self.config.executor,
            workers=self.config.workers,
            cache=DEFAULT_CACHE if self.config.module_cache else None,
            rules=self.config.rules,
        )
        # Warm the caches so replay timing measures incremental work only.
        # The latest result of every module is where candidates of
        # functions outside a diff come from, and what a change's index
        # contribution is compared against.
        self._results: dict[str, ModuleResult] = dict(self.engine.run(self.project).by_path)
        #: Candidate key → (path, position in its module): sorting by it
        #: gives the order a cold run detects the current project in.
        self.detection_order: dict[str, tuple[str, int]] = {}
        self._place(list(self._results.values()), present=True)
        _ = self.project.index
        self.project.index_changes()

    def replay_next(self) -> IncrementalResult:
        """Advance one commit and analyse the changes it introduces; the
        result's findings are ranked among themselves."""
        result = self.replay()
        result.findings = rank(
            self.project,
            result.findings,
            self.config,
            self.current_rev,
            fresh=result.findings,
            provenance=result.provenance,
        ).findings
        return result

    def replay(self, commit: str = "next", full_modules: bool = False) -> IncrementalResult:
        """Analyse the changes of one commit — ``"next"`` after the current
        revision, or a commit id — and make it the current revision.  The
        findings come back settled (see :meth:`analyze_changes`).  A
        commit that does not resolve is a :class:`VcsError`, raised
        before anything changes."""
        if self.repo is None:
            raise VcsError("project has no repository to replay commits from")
        if commit == "next":
            rev = self.current_rev + 1
            if rev >= len(self.repo.commits):
                raise VcsError("no commit after the current revision")
        else:
            rev = self.repo.rev_index(commit)
        resolved = self.repo.commits[rev]
        result = self.analyze_changes(
            commit_changes(resolved),
            label=resolved.commit_id,
            rev=rev,
            full_modules=full_modules,
        )
        self.current_rev = rev
        return result

    def _place(self, results: list[ModuleResult], present: bool) -> None:
        for result in results:
            for position, candidate in enumerate(result.candidates):
                if present:
                    self.detection_order[candidate.key] = (result.path, position)
                else:
                    self.detection_order.pop(candidate.key, None)

    @obs.traced("core.incremental")
    def analyze_changes(
        self,
        changes: Mapping[str, str | None],
        label: str = "edit",
        rev: int | str | None = None,
        full_modules: bool = False,
    ) -> IncrementalResult:
        """Analyse an explicit change set (path → new text, None = delete).

        This is the transport-agnostic core ``replay_next`` routes
        through; the analysis service feeds it uncommitted edits.  With
        ``full_modules`` the analysis set widens from the diff-touched
        functions to *every* function of each changed module — the engine
        re-analyses whole modules anyway, so this costs only resolution
        and pruning, and it lets a warm session splice the result over
        its previous full report without stale per-file findings.

        The cost follows the change, not the project: one engine pass
        over the changed modules, an index patch of their contributions,
        and resolution and pruning of the analysis set.  The findings
        come back settled, not ranked: ranking reads every reported
        finding, so it is the caller's one pass over its whole report.
        """
        started = monotonic()
        result = IncrementalResult(commit_id=label, changed_files=sorted(changes))

        # Lower every new text before touching the project: a change that
        # does not parse leaves the warm state (and detection order) as
        # it was.
        lowered = {
            path: lower_source(text, filename=path, config=self.project.build_config)
            for path, text in sorted(changes.items())
            if text is not None
        }
        changed_functions: list[tuple[str, str]] = []  # (path, function name)
        analysis_set: list[tuple[str, str]] = []
        for path in sorted(changes):
            old_text = self.project.sources.get(path, "")
            new_text = changes[path]
            if new_text is None:
                self.project.set_source(path, None)
                result.deleted_files.append(path)
                continue
            module = lowered[path]
            self.project.set_source(path, new_text, module)
            ranges = changed_line_ranges(old_text, new_text)
            for function in module.functions.values():
                touched_by_diff = any(
                    start <= function.end_line and end >= function.line
                    for start, end in ranges
                )
                if touched_by_diff:
                    changed_functions.append((path, function.name))
                if touched_by_diff or full_modules:
                    analysis_set.append((path, function.name))
        result.changed_functions = [name for _, name in changed_functions]

        # One engine pass over the changed modules (a content-cache miss
        # unless the change reverts them); every other module's candidates
        # and index contribution are the warm results.
        engine_run = self.engine.run(self.project, paths=list(lowered))
        result.engine_stats = engine_run.stats
        before = [self._results.pop(path) for path in changes if path in self._results]
        self._results.update(engine_run.by_path)
        after = list(engine_run.by_path.values())
        self._place(before, present=False)
        self._place(after, present=True)

        widened = self._reading_moved_entries(self.project.index_changes())
        # Call-site candidates (ignored returns) and parameter candidates
        # span the call boundary: changing a callee can create findings in
        # its callers.
        index = self.project.index
        for _, name in changed_functions:
            for site in index.sites_of(name):
                location = index.location(site.caller)
                if location is not None and location.file in self.project.sources:
                    widened.add((location.file, site.caller))
        analysis_set += sorted(widened.difference(analysis_set))
        result.analyzed_functions = list(analysis_set)
        if not analysis_set:
            result.seconds = monotonic() - started
            return result

        # The analysis set's candidates in detection order, with their
        # detection records (the engine's slices cover whole modules).
        wanted: dict[str, set[str]] = {}
        for path, name in analysis_set:
            wanted.setdefault(path, set()).add(name)
        candidates = [
            candidate
            for path in sorted(wanted)
            for candidate in self._results[path].candidates
            if candidate.function in wanted[path]
        ]
        for candidate in candidates:
            result.provenance.add_detection(obs.detection_record(candidate))
        result.findings = settle(
            self.project, candidates, self.config, rev, provenance=result.provenance
        )
        result.seconds = monotonic() - started
        return result

    def _reading_moved_entries(self, changes: IndexChanges) -> set[tuple[str, str]]:
        """Functions whose verdicts a change can move without reaching
        them: their candidates read an index entry the patch changed.  A
        parameter candidate reads its function's call sites and its
        (signature, index) usage flags; an ignored return reads its
        callee's return-usage flags."""
        sites, returns, params = changes.sites, changes.returns, changes.params
        index = self.project.index
        signatures = {signature for signature, _ in params}
        suspects = {(loc.file, loc.name) for loc in map(index.location, sites) if loc}
        suspects |= {
            (site.file, site.caller)
            for callee in returns
            for site in index.sites_of(callee)
            if not site.result_used
        }
        suspects |= {
            (index.functions[name].file, name)
            for signature in signatures
            for name in index.functions_with(signature)
        }

        moved: set[tuple[str, str]] = set()
        for path, name in suspects:
            location = index.location(name)
            warm = self._results.get(path)
            for candidate in warm.candidates if warm is not None else ():
                if candidate.function != name:
                    continue
                if candidate.kind.is_param_shape:
                    reads = name in sites or (
                        location is not None
                        and (location.signature, candidate.param_index) in params
                    )
                else:
                    reads = candidate.kind is CandidateKind.IGNORED_RETURN and not (
                        returns.isdisjoint(candidate.resolved_callees or (candidate.callee,))
                    )
                if reads:
                    moved.add((path, name))
                    break
        return moved
