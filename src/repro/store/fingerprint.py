"""Stable finding fingerprints: identity that survives line drift.

A finding's CSV/dedup key (``file:function:var:line:kind``) breaks the
moment anyone inserts a line above it — useless for cross-revision
tracking.  The **primary fingerprint** instead hashes what the finding
*is*, not where it happens to sit today:

* the rule kind (which unused-definition shape fired);
* the module-relative function identity (``file`` + function name —
  file paths in a project are already module-relative);
* the normalized variable/field path (variable name, field flag,
  parameter position);
* a **structural context window**: the defining statement plus its
  nearest non-blank, non-comment neighbours, each normalized
  (comments stripped, whitespace collapsed).

Line numbers are deliberately *not* hashed: inserting blank lines or
comments anywhere in the file — even between the context lines — leaves
every input unchanged, so the fingerprint is invariant under pure line
drift.  Editing the defining statement (or its immediate structural
neighbourhood) changes the context window and therefore the
fingerprint.

Two identical statements in one function (same variable, same
normalized context) are disambiguated by an **ordinal**: their relative
source order, which line shifts also preserve.

The **location fingerprint** is the coarser secondary key — the same
material minus the context window — used for fuzzy re-matching: after a
refactor rewrites the defining statement, the primary fingerprint
changes but the location fingerprint still ties the finding to its
predecessor, so the store reports it as *persistent* (SARIF
``baselineState: updated``) instead of a fixed+new pair.

Fingerprints are computed post-merge from the final finding list plus
the project sources, so they are deterministic across the serial
and process executors and across content-cache replays.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro import obs

if TYPE_CHECKING:
    from repro.core.findings import Candidate, Finding

#: Bump when the fingerprint material changes: old stored fingerprints
#: must stop matching rather than mis-match.
FINGERPRINT_VERSION = "fp-1"

#: Non-blank neighbours on each side of the defining line that enter
#: the structural context window.
CONTEXT_RADIUS = 1

#: Hex digits kept from the sha256 digest — 64 bits of collision
#: resistance per side, plenty for per-project finding populations.
_DIGEST_CHARS = 32


def normalize_line(text: str) -> str:
    """One source line with comments stripped and whitespace collapsed.

    Handles ``//`` tails and single-line ``/* ... */`` blocks; a block
    comment left open truncates the line (the remainder is comment).
    A line with no ``/`` has no comment, so it only collapses whitespace.
    """
    if "/" in text:
        text = _strip_comments(text)
    return " ".join(text.split())


def _strip_comments(text: str) -> str:
    kept: list[str] = []
    start = 0
    slash = text.find("/")
    while slash != -1:
        opener = text[slash + 1 : slash + 2]
        if opener == "/":
            break
        if opener == "*":
            kept.append(text[start:slash])
            end = text.find("*/", slash + 2)
            if end == -1:
                return "".join(kept)
            start = end + 2
            slash = text.find("/", start)
        else:
            slash = text.find("/", slash + 1)
    else:
        slash = len(text)
    kept.append(text[start:slash])
    return "".join(kept)


def structural_context(
    source_text: str | None, line: int, radius: int = CONTEXT_RADIUS
) -> tuple[str, ...]:
    """The normalized defining statement plus its nearest non-blank
    neighbours — the line-number-free anchor of the primary fingerprint.

    Blank and comment-only lines are transparent: the window walks past
    them, so inserting any number of them (above, below, or in between)
    leaves the context unchanged.
    """
    return _context_window(_normalized_lines(source_text), line, radius)


def _normalized_lines(text: str | None) -> list[str]:
    """Every line of one file, normalized (none when there is no text)."""
    if text is None:
        return []
    return [normalize_line(line) for line in text.split("\n")]


def _context_window(lines: list[str], line: int, radius: int) -> tuple[str, ...]:
    if not 1 <= line <= len(lines):
        return ()
    context: list[str] = []
    found = 0
    for index in range(line - 2, -1, -1):  # walk upward from the line above
        normalized = lines[index]
        if normalized:
            context.insert(0, normalized)
            found += 1
            if found >= radius:
                break
    context.append(lines[line - 1])
    found = 0
    for index in range(line, len(lines)):  # walk downward from the line below
        normalized = lines[index]
        if normalized:
            context.append(normalized)
            found += 1
            if found >= radius:
                break
    return tuple(context)


def variable_path(candidate: "Candidate") -> str:
    """Normalized variable/field path: what the definition defines."""
    path = candidate.var
    if candidate.is_field:
        path = f"field:{path}"
    if candidate.param_index >= 0:
        path = f"{path}@param{candidate.param_index}"
    return path


@dataclass(frozen=True)
class Fingerprint:
    """The stable identity pair of one finding."""

    primary: str  # structural — survives line drift
    location: str  # coarse — survives statement rewrites (fuzzy re-match)

    def as_dict(self) -> dict:
        return {"primary": self.primary, "location": self.location}


def _digest(parts: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:_DIGEST_CHARS]


def _primary_material(candidate: "Candidate", lines: list[str]) -> tuple[str, ...]:
    return (
        FINGERPRINT_VERSION,
        candidate.kind.value,
        candidate.file,
        candidate.function,
        variable_path(candidate),
        *_context_window(lines, candidate.line, CONTEXT_RADIUS),
    )


def _location_material(candidate: "Candidate") -> tuple[str, ...]:
    return (
        FINGERPRINT_VERSION,
        candidate.kind.value,
        candidate.file,
        candidate.function,
        variable_path(candidate),
    )


def fingerprint_candidate(
    candidate: "Candidate", source_text: str | None, ordinal: int = 0
) -> Fingerprint:
    """Fingerprint one candidate in isolation (ordinal supplied by the
    caller; use :func:`fingerprint_findings` to get ordinals right
    across a whole report)."""
    lines = _normalized_lines(source_text)
    return Fingerprint(
        primary=_digest((*_primary_material(candidate, lines), str(ordinal))),
        location=_digest((*_location_material(candidate), str(ordinal))),
    )


@obs.traced("store.fingerprint")
def fingerprint_findings(
    findings: Iterable["Finding"], sources: Mapping[str, str | None]
) -> dict[str, Fingerprint]:
    """Fingerprints for a finding list, keyed by ``finding.key``.

    Findings whose primary (or location) material collides — the same
    statement shape repeated in one function — get ordinals in source
    order, which pure line shifts preserve.  The computation only sorts
    and hashes, so the result is identical regardless of which executor
    (or cache replay) produced the findings.
    """
    rows = sorted(
        findings, key=lambda finding: (finding.candidate.line, finding.key)
    )
    primary_groups: dict[tuple[str, ...], int] = {}
    location_groups: dict[tuple[str, ...], int] = {}
    # Each file's lines are normalized once per call.
    files: dict[str, list[str]] = {}
    out: dict[str, Fingerprint] = {}
    for finding in rows:
        candidate = finding.candidate
        if candidate.file not in files:
            files[candidate.file] = _normalized_lines(sources.get(candidate.file))
        p_material = _primary_material(candidate, files[candidate.file])
        l_material = _location_material(candidate)
        p_ordinal = primary_groups.get(p_material, 0)
        primary_groups[p_material] = p_ordinal + 1
        l_ordinal = location_groups.get(l_material, 0)
        location_groups[l_material] = l_ordinal + 1
        out[finding.key] = Fingerprint(
            primary=_digest((*p_material, str(p_ordinal))),
            location=_digest((*l_material, str(l_ordinal))),
        )
    return out


def project_sources(project) -> dict[str, str]:
    """path → raw source text of every module."""
    return dict(project.sources)
