"""Candidate and finding records flowing through the ValueCheck pipeline.

A :class:`Candidate` is a raw unused definition straight out of the
detector.  Authorship resolution decorates it into cross-scope (or not),
pruning may claim it, and ranking finally turns the survivors into
:class:`Finding` rows with familiarity scores.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.ir.instructions import StoreKind


class CandidateKind(enum.Enum):
    """Which detector shape a candidate is.

    The first five are the paper's unused-definition scenarios; the
    semantic kinds below them come from additional rule packs
    (:mod:`repro.rules`) that reuse the same pipeline spine.
    """

    IGNORED_RETURN = "ignored_return"  # f(); — result discarded at a call
    UNUSED_PARAM = "unused_param"  # parameter value never read
    OVERWRITTEN_ARG = "overwritten_arg"  # parameter overwritten before read
    OVERWRITTEN_DEF = "overwritten_def"  # local def overwritten on all paths
    DEAD_STORE = "dead_store"  # def dead at exit, no overwriter
    USE_AFTER_FREE = "use_after_free"  # pointer used after a free-like call
    RESOURCE_LEAK = "resource_leak"  # acquire with a release-free exit path

    @property
    def is_param_shape(self) -> bool:
        return self in (CandidateKind.UNUSED_PARAM, CandidateKind.OVERWRITTEN_ARG)


@dataclass(frozen=True)
class Candidate:
    """One raw unused definition."""

    file: str
    function: str
    var: str  # variable name; for IGNORED_RETURN the callee name
    line: int  # def line (call line for IGNORED_RETURN, decl line for params)
    kind: CandidateKind
    store_kind: StoreKind | None = None
    # Callee whose return value produced the stored value (scenario 1),
    # for IGNORED_RETURN this is the called function itself.
    callee: str | None = None
    # Lines of the stores that overwrite this definition on all successor
    # paths (scenario 3 / overwritten argument).
    overwrite_lines: tuple[int, ...] = ()
    is_field: bool = False
    param_index: int = -1
    increment_delta: int | None = None
    # For an increment: how many stores in its function write the same
    # variable with the same delta, itself included (cursor pruning).
    same_delta_stores: int = 0
    void_cast: bool = False
    var_attrs: tuple[str, ...] = ()
    decl_line: int = 0
    # For indirect calls: every pointee the pointer analysis resolved.
    resolved_callees: tuple[str, ...] = ()
    # Rule-specific evidence sites: for USE_AFTER_FREE the free-site
    # line(s); for RESOURCE_LEAK the release-site line(s) that exist on
    # *other* paths.  Empty for the unused-definition kinds.
    evidence_lines: tuple[int, ...] = ()

    @cached_property
    def key(self) -> str:
        """Stable identifier used for dedup and ground-truth joins (built
        once: warm sessions look every candidate up by key per diff)."""
        return f"{self.file}:{self.function}:{self.var}:{self.line}:{self.kind.value}"

    def __str__(self) -> str:
        return f"{self.file}:{self.line} [{self.kind.value}] {self.function}/{self.var}"


@dataclass(frozen=True)
class AuthorshipInfo:
    """Resolved authorship for a candidate (see CrossScopeResolver)."""

    cross_scope: bool
    def_author: str = ""
    counterpart_authors: tuple[str, ...] = ()
    # The developer who introduced the inconsistency; familiarity is
    # computed for this author against ``blamed_file``.
    introducing_author: str = ""
    blamed_file: str = ""
    introduced_day: int = -1
    reason: str = ""
    # How many counterpart sites (call sites, return statements,
    # overwriting stores) the resolver actually blamed and compared —
    # the evidence base of the cross-scope verdict.
    peer_sites: int = 0

    def provenance(self) -> dict:
        """The resolution-evidence slice of a provenance record."""
        return {
            "cross_scope": self.cross_scope,
            "reason": self.reason,
            "def_author": self.def_author,
            "counterpart_authors": list(self.counterpart_authors),
            "peer_sites": self.peer_sites,
            "introducing_author": self.introducing_author,
            "blamed_file": self.blamed_file,
            "introduced_day": self.introduced_day,
        }


@dataclass(frozen=True)
class Finding:
    """A candidate that survived (or is annotated by) the full pipeline."""

    candidate: Candidate
    authorship: AuthorshipInfo | None = None
    pruned_by: str | None = None
    familiarity: float | None = None
    rank: int | None = None

    @property
    def key(self) -> str:
        return self.candidate.key

    @property
    def is_reported(self) -> bool:
        """Survived cross-scope filtering and pruning."""
        cross = self.authorship.cross_scope if self.authorship is not None else False
        return cross and self.pruned_by is None

    def with_rank(self, rank: int) -> "Finding":
        return replace(self, rank=rank)

    def to_row(self) -> dict:
        """Flat dict for CSV reports."""
        c = self.candidate
        a = self.authorship
        return {
            "rank": self.rank if self.rank is not None else "",
            "file": c.file,
            "line": c.line,
            "function": c.function,
            "variable": c.var,
            "kind": c.kind.value,
            "callee": c.callee or "",
            "cross_scope": a.cross_scope if a is not None else "",
            "introducing_author": a.introducing_author if a is not None else "",
            "pruned_by": self.pruned_by or "",
            "familiarity": f"{self.familiarity:.3f}" if self.familiarity is not None else "",
        }
