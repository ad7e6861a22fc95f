"""Project model: module source text + version history + cross-file index.

The paper analyses each bitcode file separately (§7, §8.1.2) but the
authorship lookup and peer-definition pruning need *project-wide* facts:
where every function is defined, where its ``return`` statements are, who
calls it from where, and how peers treat the same return value/parameter.
:class:`ProjectIndex` aggregates those facts across modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro import obs
from repro.errors import ReproError
from repro.frontend.preprocessor import CondRegion
from repro.ir.builder import lower_source
from repro.ir.instructions import Call
from repro.ir.module import Module
from repro.pointer.value_flow import ValueFlowGraph, call_result_used
from repro.vcs.repository import Repository

# Most callers alternate between at most a couple of revisions (HEAD and a
# replay cursor); a tiny FIFO keeps memory bounded during long replays.
_REV_CACHE_LIMIT = 4


@dataclass(frozen=True)
class FunctionLocation:
    """Where a function lives, for authorship lookup."""

    name: str
    file: str
    line: int
    end_line: int
    return_lines: tuple[int, ...]
    param_lines: tuple[int, ...]  # decl line per parameter index
    signature: tuple[str, ...]  # (return type, param type names...)


@dataclass(frozen=True)
class CallSite:
    callee: str
    file: str
    line: int
    caller: str
    result_used: bool


ParamKey = tuple[tuple[str, ...], int]


def _site_order(site: CallSite) -> tuple[str, int]:
    return site.file, site.line


def _by_callee(contribution: "ModuleContribution | None") -> dict[str, list[CallSite]]:
    sites: dict[str, list[CallSite]] = {}
    for site in contribution.call_sites if contribution is not None else ():
        sites.setdefault(site.callee, []).append(site)
    return sites


def _flags_by_key(contribution: "ModuleContribution | None") -> dict[ParamKey, tuple[bool, ...]]:
    flags: dict[ParamKey, list[bool]] = {}
    for signature, index, used in contribution.param_usage if contribution is not None else ():
        flags.setdefault((signature, index), []).append(used)
    return {key: tuple(values) for key, values in flags.items()}


@dataclass
class ProjectIndex:
    """Cross-file facts: definitions, call sites, peer usage.

    The per-callee collections are frozen tuples: the accessors below are
    hot paths (every candidate probes them during authorship and pruning)
    and handing out the internal lists would let a caller corrupt the
    index shared across analyses.  :meth:`build` merges every module's
    contribution; :meth:`patch` swaps one module's and leaves the index
    equal to a fresh build.
    """

    functions: dict[str, FunctionLocation] = field(default_factory=dict)
    call_sites: dict[str, tuple[CallSite, ...]] = field(default_factory=dict)
    # (signature, param index) -> usage flags of that parameter across all
    # functions sharing the signature (peer-definition pruning, shape 2).
    param_usage: dict[ParamKey, tuple[bool, ...]] = field(default_factory=dict)
    # What a patch needs to re-derive an entry as a build orders it: each
    # module's contribution, and each usage entry's flags per module.
    contributions: dict[str, "ModuleContribution"] = field(default_factory=dict, repr=False)
    flag_shares: dict[ParamKey, dict[str, tuple[bool, ...]]] = field(
        default_factory=dict, repr=False
    )
    # signature -> names whose winning definition has it: the functions
    # whose parameters read a (signature, index) usage entry.
    by_signature: dict[tuple[str, ...], set[str]] = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, contributions: Mapping[str, "ModuleContribution"]) -> "ProjectIndex":
        """Merge contributions in sorted path order: the last path that
        defines a name wins, call sites sort by (file, line), and usage
        flags follow path order."""
        index = cls()
        call_sites: dict[str, list[CallSite]] = {}
        for path in sorted(contributions):
            contribution = contributions[path]
            index.contributions[path] = contribution
            index.functions.update(contribution.functions)
            for site in contribution.call_sites:
                call_sites.setdefault(site.callee, []).append(site)
            for key, flags in _flags_by_key(contribution).items():
                index.flag_shares.setdefault(key, {})[path] = flags
        for name, location in index.functions.items():
            index.by_signature.setdefault(location.signature, set()).add(name)
        for callee, sites in call_sites.items():
            sites.sort(key=_site_order)
            index.call_sites[callee] = tuple(sites)
        for key, shares in index.flag_shares.items():
            index.param_usage[key] = tuple(flag for flags in shares.values() for flag in flags)
        return index

    def patch(self, path: str, contribution: "ModuleContribution | None") -> tuple[
        dict[str, FunctionLocation | None],
        dict[str, tuple[CallSite, ...]],
        dict[ParamKey, tuple[bool, ...]],
    ]:
        """Replace module ``path``'s contribution (``None`` removes the
        module).  Returns the definition, call-site and usage entries it
        rewrote, each with the value it had before."""
        old = self.contributions.pop(path, None)
        if contribution is not None:
            self.contributions[path] = contribution
        moved_functions = self._patch_functions(path, old, contribution)

        old_sites, new_sites = _by_callee(old), _by_callee(contribution)
        moved_sites: dict[str, tuple[CallSite, ...]] = {}
        for callee in old_sites.keys() | new_sites.keys():
            if old_sites.get(callee) == new_sites.get(callee):
                continue
            before = moved_sites[callee] = self.call_sites.get(callee, ())
            sites = [site for site in before if site.file != path]
            sites += new_sites.get(callee, ())
            sites.sort(key=_site_order)
            if sites:
                self.call_sites[callee] = tuple(sites)
            else:
                del self.call_sites[callee]

        old_flags, new_flags = _flags_by_key(old), _flags_by_key(contribution)
        moved_flags: dict[ParamKey, tuple[bool, ...]] = {}
        for key in old_flags.keys() | new_flags.keys():
            if old_flags.get(key) == new_flags.get(key):
                continue
            moved_flags[key] = self.param_usage.get(key, ())
            shares = self.flag_shares.setdefault(key, {})
            if key in new_flags:
                shares[path] = new_flags[key]
            else:
                del shares[path]
            if shares:
                self.param_usage[key] = tuple(
                    flag for share in sorted(shares) for flag in shares[share]
                )
            else:
                del self.flag_shares[key], self.param_usage[key]
        return moved_functions, moved_sites, moved_flags

    def _patch_functions(
        self, path: str, old: "ModuleContribution | None", new: "ModuleContribution | None"
    ) -> dict[str, FunctionLocation | None]:
        moved: dict[str, FunctionLocation | None] = {}
        defined = new.functions if new is not None else {}
        for name, location in defined.items():
            current = self.functions.get(name)
            if current is None or current.file <= path:
                self._define(name, location, moved)
        for name in old.functions.keys() - defined.keys() if old is not None else ():
            if self.functions[name].file != path:
                continue
            # The winner went away: the next path in sorted order wins.
            others = [
                other for other, share in self.contributions.items() if name in share.functions
            ]
            winner = self.contributions[max(others)].functions[name] if others else None
            self._define(name, winner, moved)
        return moved

    def _define(
        self,
        name: str,
        location: FunctionLocation | None,
        moved: dict[str, FunctionLocation | None],
    ) -> None:
        """Point ``name`` at ``location`` (``None`` drops it), keeping
        :attr:`by_signature` in step; ``moved`` gets the location it had
        before, if it changes."""
        current = self.functions.get(name)
        if current == location:
            return
        moved[name] = current
        if current is not None:
            names = self.by_signature[current.signature]
            names.discard(name)
            if not names:
                del self.by_signature[current.signature]
        if location is None:
            del self.functions[name]
        else:
            self.functions[name] = location
            self.by_signature.setdefault(location.signature, set()).add(name)

    def location(self, name: str) -> FunctionLocation | None:
        return self.functions.get(name)

    def sites_of(self, callee: str) -> tuple[CallSite, ...]:
        return self.call_sites.get(callee, ())

    def return_usage(self, callee: str) -> list[bool]:
        """result_used flags across all call sites of ``callee`` (peer
        definitions of a return value, §5.4)."""
        return [site.result_used for site in self.sites_of(callee)]

    def peer_params(self, signature: tuple[str, ...], index: int) -> tuple[bool, ...]:
        return self.param_usage.get((signature, index), ())

    def functions_with(self, signature: tuple[str, ...]) -> frozenset[str]:
        """Names of the functions whose definition has ``signature``."""
        return frozenset(self.by_signature.get(signature, ()))


@dataclass(frozen=True)
class IndexChanges:
    """Index entries whose value a patch changed: names whose winning
    definition moved, appeared or went away, callees whose call sites
    moved, the subset whose result-used flags changed as a multiset, and
    the (signature, index) keys whose usage flags changed as a multiset."""

    functions: set[str] = field(default_factory=set)
    sites: set[str] = field(default_factory=set)
    returns: set[str] = field(default_factory=set)
    params: set[ParamKey] = field(default_factory=set)


def _usage(sites: tuple[CallSite, ...]) -> list[bool]:
    return sorted(site.result_used for site in sites)


@dataclass
class ModuleContribution:
    """One module's slice of the project index, plus the raw text's
    ``#if`` regions the config-dependency pruner reads.

    Built per module by the analysis engine (in parallel — instances
    must stay picklable), then merged deterministically by
    :meth:`Project._build_index`.
    """

    functions: dict[str, FunctionLocation] = field(default_factory=dict)
    call_sites: list[CallSite] = field(default_factory=list)
    param_usage: list[tuple[tuple[str, ...], int, bool]] = field(default_factory=list)
    regions: list[CondRegion] = field(default_factory=list)


@obs.traced("engine.contribution")
def build_contribution(path: str, module: Module, vfg: ValueFlowGraph) -> ModuleContribution:
    """Compute one module's index contribution (pure function of the
    module + its value-flow graph, so engine workers can run it off the
    main process)."""
    contribution = ModuleContribution(regions=module.regions)
    for function in module.functions.values():
        ast_fn = module.unit.function(function.name) if module.unit else None
        signature: tuple[str, ...] = (function.return_type,)
        if ast_fn is not None:
            signature = (str(ast_fn.return_type), *(str(p.type) for p in ast_fn.params))
        contribution.functions[function.name] = FunctionLocation(
            name=function.name,
            file=path,
            line=function.line,
            end_line=function.end_line,
            return_lines=tuple(function.return_lines),
            param_lines=tuple(p.decl_line for p in function.params),
            signature=signature,
        )
        temp_uses = vfg.temp_uses(function)
        for instruction in function.instructions():
            if not isinstance(instruction, Call):
                continue
            used = call_result_used(instruction, temp_uses)
            for callee in vfg.resolve_call(instruction):
                contribution.call_sites.append(
                    CallSite(
                        callee=callee,
                        file=path,
                        line=instruction.line,
                        caller=function.name,
                        result_used=used,
                    )
                )
        live_entry = vfg.liveness(function).live_at_entry()
        for param in function.params:
            contribution.param_usage.append(
                (signature, param.param_index, param.name in live_entry)
            )
    return contribution


class Project:
    """A set of C modules held as source text, optionally backed by a
    MiniGit repository.

    ``sources`` (path → text) is the only per-module truth.  IR is built
    on demand: :meth:`module` lowers a path on first use and memoises it.
    Every other per-module fact (index contribution, ``#if`` regions) is
    the record an :class:`~repro.engine.AnalysisEngine` run installs.
    The engine answers most modules from its content-addressed cache
    without asking for IR at all, so re-opening a tree whose results are
    cached parses nothing.

    ``build_config`` is the set of preprocessor macros the "build" enables
    — it determines which ``#if`` arms reach the IR, exactly like the
    compilation configuration in the paper's §5.1.
    """

    def __init__(
        self,
        name: str,
        sources: dict[str, str],
        repo: Repository | None = None,
        build_config: set[str] | None = None,
    ):
        self.name = name
        self.sources = dict(sources)
        self.repo = repo
        self.build_config = set(build_config or ())
        self._modules: dict[str, Module] = {}
        self._contribs: dict[str, ModuleContribution] = {}
        self._index: ProjectIndex | None = None
        # Paths whose share of the built index is out of date, and what
        # each entry held before the first patch since index_changes().
        self._stale: set[str] = set()
        self._prior_functions: dict[str, FunctionLocation | None] = {}
        self._prior_sites: dict[str, tuple[CallSite, ...]] = {}
        self._prior_flags: dict[ParamKey, tuple[bool, ...]] = {}
        # Revision-keyed caches for analysis helpers (BlameIndex and the
        # cross-scope resolver) — rebuilt only when the keyed rev changes
        # or the project is invalidated, not on every analyze() call.
        self._blame_cache: dict[object, object] = {}
        self._resolver_cache: dict[object, object] = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def from_sources(
        cls,
        sources: dict[str, str],
        name: str = "project",
        repo: Repository | None = None,
        build_config: set[str] | None = None,
    ) -> "Project":
        return cls(name=name, sources=sources, repo=repo, build_config=build_config)

    @classmethod
    def from_repository(
        cls,
        repo: Repository,
        rev: int | str | None = None,
        name: str | None = None,
        build_config: set[str] | None = None,
        suffixes: tuple[str, ...] = (".c",),
    ) -> "Project":
        snapshot = repo.snapshot_at(rev)
        sources = {
            path: text for path, text in snapshot.items() if path.endswith(suffixes)
        }
        return cls.from_sources(
            sources, name=name or repo.name, repo=repo, build_config=build_config
        )

    # -- per-module state ----------------------------------------------------

    def module(self, path: str) -> Module:
        """The IR of one module, lowered on first use."""
        module = self._modules.get(path)
        if module is None:
            if path not in self.sources:
                raise ReproError(f"unknown module {path}")
            module = lower_source(self.sources[path], filename=path, config=self.build_config)
            self._modules[path] = module
        return module

    def set_source(self, path: str, text: str | None, module: Module | None = None) -> None:
        """Replace one module's text (``None`` removes the module);
        ``module`` is the new text's IR when the caller already lowered
        it.  Every per-module analysis of ``path`` is dropped, and the
        next read of :attr:`index` patches the module's old contribution
        out and its new one in."""
        self._modules.pop(path, None)
        if text is None:
            self.sources.pop(path, None)
        else:
            self.sources[path] = text
            if module is not None:
                self._modules[path] = module
        self.invalidate({path})

    # -- derived state ------------------------------------------------------

    @property
    def index(self) -> ProjectIndex:
        """The project index: built on first read, then patched per
        changed module (equal to a fresh :meth:`_build_index`), from the
        contributions an engine run installed (see :meth:`contribution`)."""
        if self._index is None:
            self._index = self._build_index()
            self._stale.clear()
        elif self._stale:
            self._patch_index()
        return self._index

    def index_changes(self) -> IndexChanges:
        """The index entries whose value changed since the previous call
        (after patching in every pending module change)."""
        index = self.index
        functions = {
            name
            for name, before in self._prior_functions.items()
            if index.location(name) != before
        }
        sites = {
            callee
            for callee, before in self._prior_sites.items()
            if index.sites_of(callee) != before
        }
        returns = {
            callee
            for callee in sites
            if _usage(self._prior_sites[callee]) != _usage(index.sites_of(callee))
        }
        params = {
            key
            for key, before in self._prior_flags.items()
            if sorted(before) != sorted(index.peer_params(*key))
        }
        self._prior_functions.clear()
        self._prior_sites.clear()
        self._prior_flags.clear()
        return IndexChanges(functions=functions, sites=sites, returns=returns, params=params)

    def invalidate(self, paths: set[str] | None = None) -> None:
        """Drop cached per-module analyses (after incremental updates);
        the index re-reads those modules' contributions, which an engine
        run installs again, when next read."""
        if paths is None:
            paths = set(self.sources) | set(self._contribs)
        for path in paths:
            self._contribs.pop(path, None)
        if self._index is not None:
            self._stale |= paths
        # Resolvers capture the index, so they are stale now; blame data
        # depends only on (repo, rev) and stays valid.
        self._resolver_cache.clear()

    def blame_index(self, rev: int | str | None = None):
        """Blame data at ``rev``, cached per revision."""
        if self.repo is None:
            raise ReproError(f"project {self.name} has no repository to blame")
        if rev not in self._blame_cache:
            from repro.vcs.blame import BlameIndex

            if len(self._blame_cache) >= _REV_CACHE_LIMIT:
                self._blame_cache.pop(next(iter(self._blame_cache)))
            self._blame_cache[rev] = BlameIndex(self.repo, rev=rev)
        return self._blame_cache[rev]

    def resolver(self, rev: int | str | None = None):
        """Cross-scope resolver at ``rev``, cached per revision (cleared on
        :meth:`invalidate` because resolvers capture the index)."""
        if rev not in self._resolver_cache:
            from repro.core.cross_scope import CrossScopeResolver

            if len(self._resolver_cache) >= _REV_CACHE_LIMIT:
                self._resolver_cache.pop(next(iter(self._resolver_cache)))
            self._resolver_cache[rev] = CrossScopeResolver(self, rev=rev)
        return self._resolver_cache[rev]

    def contribution(self, path: str) -> ModuleContribution:
        """Module ``path``'s contribution, as the last engine run that
        analysed the module's current text installed it."""
        contribution = self._contribs.get(path)
        if contribution is None:
            raise ReproError(f"module {path} has no engine result; run AnalysisEngine first")
        return contribution

    def function_location(self, path: str, name: str) -> FunctionLocation | None:
        """Where function ``name`` of module ``path`` sits, read from the
        module's contribution (``None`` for a path the project lacks)."""
        if path not in self.sources:
            return None
        return self.contribution(path).functions.get(name)

    @obs.traced("core.index")
    def _build_index(self) -> ProjectIndex:
        return ProjectIndex.build(
            {path: self.contribution(path) for path in sorted(self.sources)}
        )

    @obs.traced("core.index")
    def _patch_index(self) -> None:
        for path in sorted(self._stale):
            contribution = self.contribution(path) if path in self.sources else None
            functions, sites, flags = self._index.patch(path, contribution)
            for name, before in functions.items():
                self._prior_functions.setdefault(name, before)
            for callee, before in sites.items():
                self._prior_sites.setdefault(callee, before)
            for key, before in flags.items():
                self._prior_flags.setdefault(key, before)
        self._stale.clear()

    # -- conveniences -------------------------------------------------------

    def functions(self):
        for path in sorted(self.sources):
            module = self.module(path)
            for name in sorted(module.functions):
                yield path, module, module.functions[name]

    def loc(self) -> int:
        return sum(text.count("\n") + 1 for text in self.sources.values())
