"""The reviewed-and-accepted baseline file: ``.valuecheck-baseline.json``.

A baseline entry is a triage decision that must survive between CI
runs: *this finding is known, someone looked at it, here is why it is
acceptable, and here is who signed off*.  The gate never fails on a
finding covered by the baseline, and SARIF exports carry each accepted
finding as a suppression whose justification names the author — feeding
the same provenance trail ``--explain`` renders.

File format (JSON, stable ordering)::

    {
      "schema": 1,
      "tool": "valuecheck",
      "entries": [
        {
          "fingerprint": "<primary fingerprint>",
          "justification": "intentional: config default is dead here",
          "author": "reviewer1",
          "accepted_rev": "release-1.2",
          "kind": "dead_store", "file": "cache.c",
          "function": "evict", "var": "tmp"
        }
      ]
    }

Only ``fingerprint`` identifies the finding — the location fields are
human context for reviewing the file in a diff.  Entries match by
primary fingerprint first and fall back to the location fingerprint, so
an accepted finding stays suppressed across the same refactors the
store itself re-matches through.

Round-trip: :func:`suppression_for` renders one entry as a SARIF 2.1.0
``suppressions[]`` object and :func:`baseline_from_sarif` reconstructs
a :class:`BaselineFile` from any SARIF log written with them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import StoreError

BASELINE_SCHEMA = 1
BASELINE_FILENAME = ".valuecheck-baseline.json"


@dataclass(frozen=True)
class BaselineEntry:
    """One reviewed-and-accepted finding."""

    fingerprint: str
    justification: str
    author: str
    accepted_rev: str = ""
    kind: str = ""
    file: str = ""
    function: str = ""
    var: str = ""

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "justification": self.justification,
            "author": self.author,
            "accepted_rev": self.accepted_rev,
            "kind": self.kind,
            "file": self.file,
            "function": self.function,
            "var": self.var,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BaselineEntry":
        return cls(
            fingerprint=data.get("fingerprint", ""),
            justification=data.get("justification", ""),
            author=data.get("author", ""),
            accepted_rev=data.get("accepted_rev", ""),
            kind=data.get("kind", ""),
            file=data.get("file", ""),
            function=data.get("function", ""),
            var=data.get("var", ""),
        )


@dataclass
class BaselineFile:
    """An in-memory ``.valuecheck-baseline.json``."""

    entries: list[BaselineEntry] = field(default_factory=list)
    path: Path | None = None

    @classmethod
    def load(cls, path: str | Path) -> "BaselineFile":
        """Load a baseline file; a missing file is an empty baseline.
        Anything that is not a baseline document raises :class:`StoreError`."""
        target = Path(path)
        if not target.exists():
            return cls(path=target)
        try:
            data = json.loads(target.read_text())
            schema, rows = data.get("schema", 1), data.get("entries", [])
            if type(schema) is not int or not isinstance(rows, list):
                raise TypeError("'schema' must be an integer and 'entries' a list")
            entries = [BaselineEntry.from_dict(row) for row in rows]
            fields = [value for entry in entries for value in entry.as_dict().values()]
            if not all(isinstance(value, str) for value in fields):
                raise TypeError("entry fields must be strings")
        except (OSError, AttributeError, TypeError, ValueError, RecursionError) as error:
            raise StoreError(f"{target} is not a baseline file: {error}") from error
        if schema > BASELINE_SCHEMA:
            raise StoreError(
                f"{target} was written by a newer baseline schema "
                f"({schema} > {BASELINE_SCHEMA})"
            )
        return cls(entries=entries, path=target)

    def save(self, path: str | Path | None = None) -> Path:
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("baseline file has no path to save to")
        payload = {
            "schema": BASELINE_SCHEMA,
            "tool": "valuecheck",
            "entries": [
                entry.as_dict()
                for entry in sorted(self.entries, key=lambda e: e.fingerprint)
            ],
        }
        target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        self.path = target
        return target

    def add(self, entry: BaselineEntry) -> None:
        """Add (or replace) the entry for one fingerprint."""
        self.entries = [
            existing
            for existing in self.entries
            if existing.fingerprint != entry.fingerprint
        ]
        self.entries.append(entry)

    def covers(self, *fingerprints: str) -> BaselineEntry | None:
        """The entry matching any of the given fingerprints (primary
        first, then the location fallback), or None."""
        by_fingerprint = {entry.fingerprint: entry for entry in self.entries}
        for fingerprint in fingerprints:
            if fingerprint in by_fingerprint:
                return by_fingerprint[fingerprint]
        return None

    def __len__(self) -> int:
        return len(self.entries)


def suppression_for(entry: BaselineEntry) -> dict:
    """One SARIF 2.1.0 ``suppressions[]`` object for an accepted finding."""
    justification = entry.justification
    if entry.author:
        justification += f" (accepted by {entry.author})"
    suppression = {
        "kind": "external",
        "status": "accepted",
        "justification": justification,
        "properties": {
            "valuecheck/justification": entry.justification,
            "valuecheck/author": entry.author,
        },
    }
    if entry.accepted_rev:
        suppression["properties"]["valuecheck/acceptedRev"] = entry.accepted_rev
    return suppression


def baseline_from_sarif(log: dict) -> BaselineFile:
    """Reconstruct the baseline from a SARIF log written with
    :func:`suppression_for` suppressions — the round-trip contract."""
    baseline = BaselineFile()
    for run in log.get("runs", ()):
        for result in run.get("results", ()):
            fingerprint = result.get("partialFingerprints", {}).get(
                "valuecheck/primary"
            )
            if not fingerprint:
                continue
            for suppression in result.get("suppressions", ()):
                properties = suppression.get("properties", {})
                if "valuecheck/justification" not in properties:
                    continue  # a pruner suppression, not a triage decision
                location = (
                    result.get("locations", [{}])[0]
                    .get("physicalLocation", {})
                    .get("artifactLocation", {})
                )
                logical = result.get("locations", [{}])[0].get(
                    "logicalLocations", [{}]
                )
                baseline.add(
                    BaselineEntry(
                        fingerprint=fingerprint,
                        justification=properties.get("valuecheck/justification", ""),
                        author=properties.get("valuecheck/author", ""),
                        accepted_rev=properties.get("valuecheck/acceptedRev", ""),
                        kind=result.get("ruleId", ""),
                        file=location.get("uri", ""),
                        function=(logical[0] if logical else {}).get("name", ""),
                    )
                )
    return baseline
