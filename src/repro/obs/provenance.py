"""Finding provenance: the per-candidate decision audit trail.

Timing observability (spans, metrics) says how long each stage took;
provenance says what each stage *decided* about every candidate and on
what evidence.  One :class:`ProvenanceRecord` accumulates the full
story of one candidate through the pipeline:

* **detection** — where and as what shape the candidate was found
  (file, function, variable, line, kind, callee, overwriters);
* **resolution** — the cross-scope verdict with the authors, blamed
  commits-days and peer-site counts it compared;
* **verdicts** — one entry per pruner consulted, each carrying the
  concrete evidence it acted on (peer ratio 7/10, matched unused-hint
  token, ``#ifdef`` guard location, cursor delta, ...).  Pruners
  short-circuit: the entry that pruned is the last entry;
* **ranking** — the DOK term breakdown (FA/DL/AC, the alpha weights,
  the final score) and the candidate's rank position.

Identity rules match the metrics registry: a record is keyed by the
candidate's stable ``key`` (``file:function:var:line:kind``), worker
detection slices merge in sorted path order, and serialisation sorts by
key — so the JSONL export is byte-identical across the serial and
process executors.  Detection slices are plain dicts stored inside
``ModuleResult`` so content-cache hits replay them deterministically.

Everything here duck-types over candidates/findings (no repro.core
imports): obs stays a leaf the core pipeline can depend on.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field, replace

#: Bump when the record shape below changes incompatibly; exported
#: JSONL and BENCH ``stages.provenance`` sections carry it.
PROVENANCE_SCHEMA_VERSION = 1

#: Terminal statuses a record can end a run with.
STATUSES = ("detected", "not_cross_scope", "pruned", "reported")


def detection_record(candidate) -> dict:
    """The deterministic detection slice of one candidate (picklable,
    cache-replayable — no timings, no object references)."""
    record = {
        "key": candidate.key,
        "file": candidate.file,
        "function": candidate.function,
        "var": candidate.var,
        "line": candidate.line,
        "kind": candidate.kind.value,
        "store_kind": candidate.store_kind.value if candidate.store_kind else None,
        "callee": candidate.callee,
        "resolved_callees": list(candidate.resolved_callees),
        "overwrite_lines": list(candidate.overwrite_lines),
        "param_index": candidate.param_index,
        "decl_line": candidate.decl_line,
        "is_field": candidate.is_field,
        "void_cast": candidate.void_cast,
        "increment_delta": candidate.increment_delta,
    }
    # Semantic rules (use-after-free, resource-leak) carry their evidence
    # sites; the key is present only for them so classic unused-definition
    # records stay byte-identical to pre-rule-pack logs.
    if candidate.evidence_lines:
        record["evidence_lines"] = list(candidate.evidence_lines)
    return record


@dataclass
class PrunerVerdict:
    """One pruner's decision about one candidate, with its evidence."""

    pruner: str
    pruned: bool
    evidence: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "pruner": self.pruner,
            "pruned": self.pruned,
            "evidence": self.evidence,
        }


@dataclass
class ProvenanceRecord:
    """Everything the pipeline decided about one candidate."""

    key: str
    detection: dict = field(default_factory=dict)
    resolution: dict | None = None
    verdicts: list[PrunerVerdict] = field(default_factory=list)
    ranking: dict | None = None
    status: str = "detected"
    pruned_by: str | None = None
    rank: int | None = None
    # ``as_dict()`` and ``render_record()`` of the record as it stands.
    # Every :class:`ProvenanceLog` mutator clears them; ``init=False``
    # keeps ``dataclasses.replace`` from copying them into a copy that
    # is about to be restamped.
    _dict: dict | None = field(default=None, init=False, repr=False, compare=False)
    _text: str | None = field(default=None, init=False, repr=False, compare=False)

    def as_dict(self) -> dict:
        """The record as plain data, built once until the log next
        changes the record.  The dict and its detection, resolution,
        evidence and ranking slices are shared, not copied: a warm
        session's ``explain`` hands out the same objects after every
        diff, so treat them as read-only."""
        if self._dict is None:
            self._dict = {
                "schema": PROVENANCE_SCHEMA_VERSION,
                "key": self.key,
                "status": self.status,
                "rank": self.rank,
                "pruned_by": self.pruned_by,
                "detection": self.detection,
                "resolution": self.resolution,
                "verdicts": [verdict.as_dict() for verdict in self.verdicts],
                "ranking": self.ranking,
            }
        return self._dict

    def rendered(self) -> str:
        """:func:`render_record` of this record, built once until the log
        next changes the record."""
        if self._text is None:
            self._text = render_record(self)
        return self._text

    def touch(self) -> None:
        """Forget the cached views (every mutation calls this)."""
        self._dict = None
        self._text = None


class ProvenanceLog:
    """Thread-safe collection of provenance records for one run.

    Workers never write here directly — they ship detection-slice dicts
    back inside ``ModuleResult`` and the scheduler folds them in via
    :meth:`merge_detections` in sorted path order, mirroring how worker
    metrics snapshots merge.  Resolution, verdicts and ranking are
    recorded by the (single-threaded) tail of the pipeline.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: dict[str, ProvenanceRecord] = {}
        # Keys of the records whose status is "reported": the ones a
        # splice must copy rather than share.
        self._reported: set[str] = set()

    # -- recording -------------------------------------------------------

    def _record(self, key: str) -> ProvenanceRecord:
        record = self._records.get(key)
        if record is None:
            record = ProvenanceRecord(key=key)
            self._records[key] = record
        return record

    def add_detection(self, detection: dict) -> None:
        with self._lock:
            record = self._record(detection["key"])
            record.detection = dict(detection)
            record.touch()

    def merge_detections(self, detections: list[dict]) -> None:
        """Fold one module's detection slice in (scheduler merge path)."""
        for detection in detections:
            self.add_detection(detection)

    def set_resolution(self, key: str, resolution: dict) -> None:
        with self._lock:
            record = self._record(key)
            record.resolution = dict(resolution)
            if not resolution.get("cross_scope", False):
                record.status = "not_cross_scope"
                self._reported.discard(key)
            record.touch()

    def add_verdict(self, key: str, verdict: PrunerVerdict) -> None:
        with self._lock:
            record = self._record(key)
            record.verdicts.append(verdict)
            if verdict.pruned:
                record.status = "pruned"
                record.pruned_by = verdict.pruner
                self._reported.discard(key)
            record.touch()

    def set_ranking(self, key: str, ranking: dict) -> None:
        with self._lock:
            record = self._record(key)
            record.ranking = dict(ranking)
            record.touch()

    def finalize(self, findings) -> None:
        """Stamp each finding's terminal status and rank position."""
        with self._lock:
            for finding in findings:
                record = self._records.get(finding.key)
                if record is None:
                    continue
                record.rank = finding.rank
                record.pruned_by = finding.pruned_by
                if finding.is_reported:
                    record.status = "reported"
                elif finding.pruned_by is not None:
                    record.status = "pruned"
                if record.status == "reported":
                    self._reported.add(record.key)
                else:
                    self._reported.discard(record.key)
                record.touch()

    def splice(self, dropped: set[str], fresh: "ProvenanceLog") -> "ProvenanceLog":
        """A new log: this log's records except ``dropped`` ones, then all
        of ``fresh``'s.  Records are shared, not copied — except reported
        ones, whose rank a re-ranking of the new log restamps; their
        copies own their verdict lists and start with empty caches, so
        this log's records and cached views stay as they were.  The cost
        is a dict copy plus O(dropped + reported) work."""
        spliced = ProvenanceLog()
        records, reported = spliced._records, spliced._reported
        for log, skip in ((self, dropped), (fresh, ())):
            with log._lock:
                records.update(log._records)
                for key in skip:
                    records.pop(key, None)
                # A record this log brings replaces an earlier log's.
                reported -= {key for key in reported if key in log._records}
                for key in log._reported.difference(skip):
                    record = log._records[key]
                    records[key] = replace(record, verdicts=list(record.verdicts))
                    reported.add(key)
        return spliced

    # -- reading ---------------------------------------------------------

    def get(self, key: str) -> ProvenanceRecord | None:
        with self._lock:
            return self._records.get(key)

    def records(self) -> list[ProvenanceRecord]:
        """All records, sorted by candidate key (the canonical order)."""
        with self._lock:
            return [self._records[key] for key in sorted(self._records)]

    def find(self, fragment: str) -> list[ProvenanceRecord]:
        """Records whose key contains ``fragment`` (explain lookups)."""
        return [record for record in self.records() if fragment in record.key]

    def snapshot(self) -> list[dict]:
        """Plain dicts, sorted by key — the JSONL/SARIF payload (read-only:
        see :meth:`ProvenanceRecord.as_dict`)."""
        return [record.as_dict() for record in self.records()]

    def to_jsonl(self) -> str:
        """One record per line, keys sorted: byte-identical across
        executors for the same analysis inputs."""
        return "".join(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            for record in self.snapshot()
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # -- aggregates ------------------------------------------------------

    def aggregates(self) -> dict:
        """The roll-up the stats table and BENCH trajectory consume.

        ``pruned_by`` is derived from the per-record verdicts — the same
        objects the pruning pipeline counted its kill metrics from — so
        the two views cannot diverge.
        """
        with self._lock:
            records = list(self._records.values())
        pruned_by: dict[str, int] = {}
        statuses: dict[str, int] = {status: 0 for status in STATUSES}
        explained = 0
        for record in records:
            statuses[record.status] = statuses.get(record.status, 0) + 1
            if record.pruned_by is not None:
                pruned_by[record.pruned_by] = pruned_by.get(record.pruned_by, 0) + 1
            if record.resolution is not None:
                explained += 1
        return {
            "schema": PROVENANCE_SCHEMA_VERSION,
            "candidates": len(records),
            "explained": explained,
            "pruned_by": dict(sorted(pruned_by.items())),
            "statuses": statuses,
        }


# -- rendering -----------------------------------------------------------


def format_evidence(evidence: dict) -> str:
    if not evidence:
        return ""
    parts = []
    for key in sorted(evidence):
        value = evidence[key]
        if isinstance(value, float):
            value = f"{value:.3f}"
        parts.append(f"{key}={value}")
    return " (" + ", ".join(parts) + ")"


def _render_ranking(ranking: dict) -> list[str]:
    lines = []
    score = ranking.get("familiarity")
    rank = ranking.get("rank")
    head = "ranking:"
    if rank is not None:
        head += f" rank #{rank}"
    if score is not None:
        head += f", familiarity {score:.3f}"
    lines.append(head)
    breakdown = ranking.get("breakdown")
    if breakdown and breakdown.get("model") == "dok":
        lines.append(
            f"  DOK = {breakdown['alpha0']:.2f}"
            f" + FA {breakdown['term_fa']:.2f} (first_author={breakdown['fa']})"
            f" + DL {breakdown['term_dl']:.2f} (deliveries={breakdown['dl']})"
            f" - AC {breakdown['term_ac']:.2f} (acceptances={breakdown['ac']})"
            f" = {breakdown['score']:.3f}"
        )
    elif breakdown:
        lines.append(f"  model={breakdown.get('model')} score={breakdown.get('score')}")
    return lines


def render_record(record: ProvenanceRecord) -> str:
    """One candidate's decision trail as a readable tree."""
    detection = record.detection
    head = f"{record.key} — {record.status}"
    if record.rank is not None:
        head += f" (rank #{record.rank})"
    if record.pruned_by is not None:
        head += f" (pruned by {record.pruned_by})"
    sections: list[list[str]] = []

    det_lines = [
        f"detection: {detection.get('kind', '?')} of `{detection.get('var', '?')}`"
        f" in `{detection.get('function', '?')}`"
        f" at {detection.get('file', '?')}:{detection.get('line', '?')}"
    ]
    if detection.get("callee"):
        det_lines.append(f"  value from call to `{detection['callee']}`")
    if detection.get("overwrite_lines"):
        lines_list = ", ".join(str(line) for line in detection["overwrite_lines"])
        det_lines.append(f"  overwritten on all paths at line(s) {lines_list}")
    sections.append(det_lines)

    if record.resolution is not None:
        resolution = record.resolution
        res_lines = [
            f"resolution: cross_scope={resolution.get('cross_scope')}"
            f" — {resolution.get('reason', '')}"
        ]
        if resolution.get("def_author"):
            res_lines.append(f"  def author: {resolution['def_author']}")
        counterparts = resolution.get("counterpart_authors") or []
        if counterparts:
            res_lines.append(
                f"  counterpart authors ({resolution.get('peer_sites', len(counterparts))}"
                f" site(s)): {', '.join(counterparts)}"
            )
        if resolution.get("introducing_author"):
            res_lines.append(
                f"  introduced by {resolution['introducing_author']}"
                f" (day {resolution.get('introduced_day')})"
            )
        sections.append(res_lines)

    if record.verdicts:
        verdict_lines = ["pruning:"]
        for verdict in record.verdicts:
            mark = "KILL" if verdict.pruned else "pass"
            verdict_lines.append(
                f"  {verdict.pruner:<20}{mark}{format_evidence(verdict.evidence)}"
            )
        sections.append(verdict_lines)

    if record.ranking is not None:
        sections.append(_render_ranking(record.ranking))

    out = [head]
    for index, section in enumerate(sections):
        last = index == len(sections) - 1
        branch, cont = ("└─ ", "   ") if last else ("├─ ", "│  ")
        out.append(branch + section[0])
        out.extend(cont + line for line in section[1:])
    return "\n".join(out)


def render_records(records: list[ProvenanceRecord]) -> str:
    """The records' decision trees, each rendered once per change."""
    return "\n\n".join(record.rendered() for record in records)
