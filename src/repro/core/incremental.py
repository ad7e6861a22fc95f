"""Incremental per-commit analysis (paper §8.6).

"This overhead could be reduced by running the analysis incrementally,
i.e., only on the changed functions and the affected files in a commit."

The analyzer keeps a warm :class:`~repro.core.project.Project`; moving it
to a revision re-parses only the files whose text differs from that
revision's tree, and settles the functions of those modules alone
(:func:`~repro.core.valuecheck.settle`: resolve → prune) — pruning and
authorship still see the full project index, which is patched with the
changed modules' contributions, not rebuilt.  The analysis set also takes
in every function whose verdict can move without a diff reaching it:
callers of functions the diff touched, and functions whose candidates
read an index entry the patch changed."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro import obs
from repro.core.findings import CandidateKind, Finding
from repro.core.project import IndexChanges, Project
from repro.core.valuecheck import ValueCheckConfig, settle
from repro.errors import VcsError
from repro.obs.clock import monotonic
from repro.ir.builder import lower_source
from repro.vcs.diff import myers_diff

if TYPE_CHECKING:
    from repro.engine.scheduler import EngineStats
    from repro.engine.worker import ModuleResult


@dataclass
class IncrementalResult:
    commit_id: str
    changed_files: list[str] = field(default_factory=list)
    changed_functions: list[str] = field(default_factory=list)
    # The re-analysed functions' findings, settled (``is_reported`` is
    # final) and unranked: ranking reads every reported finding of the
    # project, so it is the caller's one pass over its whole report.
    findings: list[Finding] = field(default_factory=list)
    # Monotonic-clock duration of this incremental step (see
    # repro.obs.clock — never wall-clock, daemons run across NTP slews).
    seconds: float = 0.0
    # Every (file, function) the step re-analysed: every function of
    # each changed module, plus the callers and index readers it widened to.
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
    """Move a warm project between revisions, analysing only what changed."""

    def __init__(
        self,
        project: Project,
        config: ValueCheckConfig | None = None,
        rev: int | str | None = None,
    ):
        """Warm incremental state over a built project.

        ``rev`` is the revision the project was materialised at (HEAD
        when omitted).  A project built from loose sources has no
        repository: only :meth:`analyze_changes` is usable then, and only
        with ``use_authorship=False`` (there is nothing to blame)."""
        # Imported lazily: the engine's scheduler imports repro.core,
        # whose package import reaches this module.
        from repro.engine import DEFAULT_CACHE, AnalysisEngine

        self.repo = project.repo
        self.config = config or ValueCheckConfig()
        self.current_rev = self.repo.rev_index(rev) if self.repo is not None else -1
        self.project = project
        #: C paths whose text differs from the current revision's tree:
        #: the project's own (a worktree read from disk), then every path
        #: :meth:`analyze_changes` changed since the last :meth:`replay`.
        self._edited: set[str] = set()
        if self.repo is not None:
            tree = self.repo.snapshot_at(self.current_rev)
            self._edited = {
                path
                for path in tree.keys() | project.sources.keys()
                if path.endswith(".c") and tree.get(path) != project.sources.get(path)
            }
        # Per-module work (detection + index contributions) goes through
        # the engine so moving to a revision that reverts a file — or
        # back to one seen before — hits the content-addressed cache.
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

    def replay(self, commit: str = "next") -> IncrementalResult:
        """Move the project to a revision — ``"next"`` after the current
        one, or any commit id, forward or back — and analyse the tree
        difference (see :meth:`analyze_changes`).

        The project becomes the target revision's tree: a C path that a
        commit between the two revisions touched, or whose text differs
        from the current revision's tree, gets its text at the target, so
        uncommitted edits are dropped.  A commit that does not resolve is
        a :class:`VcsError`, raised before anything changes."""
        if self.repo is None:
            raise VcsError("project has no repository to replay commits from")
        if commit == "next":
            rev = self.current_rev + 1
            if rev >= len(self.repo.commits):
                raise VcsError("no commit after the current revision")
        else:
            rev = self.repo.rev_index(commit)
        low, high = sorted((self.current_rev, rev))
        paths = self._edited.union(
            path
            for moved in self.repo.commits[low + 1 : high + 1]
            for path in moved.changes
            if path.endswith(".c")
        )
        changes = {}
        for path in sorted(paths):
            text = self.repo.text_at(path, rev)
            if text != self.project.sources.get(path):
                changes[path] = text
        result = self.analyze_changes(changes, label=self.repo.commits[rev].commit_id, rev=rev)
        self.current_rev = rev
        self._edited.clear()
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
    ) -> IncrementalResult:
        """Analyse an explicit change set (path → new text, None = delete).

        :meth:`replay` routes through it, and the analysis service feeds
        it uncommitted edits.  The analysis set is *every* function of
        each changed module — the engine re-analyses whole modules
        anyway, so this costs only resolution and pruning, and a warm
        session splices the result over its previous full report without
        stale per-file findings (a line shift moves the candidate keys
        of a change's untouched siblings).

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
        self._edited.update(changes)
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
                analysis_set.append((path, function.name))
                if any(
                    start <= function.end_line and end >= function.line
                    for start, end in ranges
                ):
                    changed_functions.append((path, function.name))
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
        them: their candidates read an index entry the patch changed.
        Every candidate reads its function's definition; a parameter
        candidate also reads its function's call sites and its
        (signature, index) usage flags, and an ignored return its
        callee's definition (where its returns are) and return-usage
        flags."""
        defined, sites, params = changes.functions, changes.sites, changes.params
        returns = changes.returns | defined
        index = self.project.index
        signatures = {signature for signature, _ in params}
        suspects = {
            (loc.file, loc.name) for loc in map(index.location, sites | defined) if loc
        }
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
                if name in defined:
                    reads = True
                elif candidate.kind.is_param_shape:
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
