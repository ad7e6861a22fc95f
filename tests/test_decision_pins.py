"""What the pipeline decides, pinned per ``ANALYSIS_VERSION``.

The module cache keys every stored result by ``ANALYSIS_VERSION``, so a
change to what detection, resolution or pruning decides must bump it, or
warm caches replay stale results.  This table makes that rule a test:
each analysis version owns one row of decision counts on two fixed
corpora, and the test fails when the running version has no row or its
row no longer matches.  A change that moves these counts adds a row and
bumps the version in the same commit.
"""

from __future__ import annotations

import pytest

from repro.core import ValueCheck, ValueCheckConfig
from repro.corpus import generate_app
from repro.corpus.generator import generate_rules_corpus
from repro.engine import ANALYSIS_VERSION
from repro.obs.sinks import rule_candidates, rule_kills
from repro.rules.registry import pack_for_kind

#: analysis version -> decision counts.
#: ``nfs-ganesha``: ``provenance.aggregates()`` of nfs-ganesha at scale
#: 0.1, seed 7, every rule pack (the provenance format ``schema`` left out).
#: ``rules-eval``: per rule pack, (candidates, killed, reported) on the
#: rules-eval corpus, seed 7.
DECISION_PINS: dict[str, dict[str, dict]] = {
    "engine-5": {
        "nfs-ganesha": {
            "candidates": 117,
            "explained": 117,
            "pruned_by": {
                "config_dependency": 1,
                "cursor": 1,
                "peer_definition": 13,
                "unused_hints": 84,
            },
            "statuses": {
                "detected": 0,
                "not_cross_scope": 15,
                "pruned": 99,
                "reported": 3,
            },
        },
        "rules-eval": {
            "unused_definitions": (32, 20, 6),
            "use_after_free": (6, 0, 6),
            "resource_leak": (6, 0, 6),
        },
    },
}

#: Cold runs: the pins must come from the analysis, not a cache replay.
CONFIG = ValueCheckConfig(module_cache=False)


def _nfs_ganesha() -> dict:
    report = ValueCheck(CONFIG).analyze(
        generate_app("nfs-ganesha", scale=0.1, seed=7).project()
    )
    aggregates = report.provenance.aggregates()
    aggregates.pop("schema")
    return aggregates


def _rules_eval() -> dict:
    report = ValueCheck(CONFIG).analyze(generate_rules_corpus(seed=7).project())
    candidates = rule_candidates(report.metrics)
    killed = rule_kills(report.metrics)
    reported: dict[str, int] = {}
    for finding in report.reported():
        rule = pack_for_kind(finding.candidate.kind).name
        reported[rule] = reported.get(rule, 0) + 1
    return {
        rule: (candidates.get(rule, 0), killed.get(rule, 0), reported.get(rule, 0))
        for rule in candidates.keys() | killed.keys() | reported.keys()
    }


@pytest.mark.parametrize(
    "corpus, decide", [("nfs-ganesha", _nfs_ganesha), ("rules-eval", _rules_eval)]
)
def test_decisions_match_the_pinned_row(corpus, decide):
    assert ANALYSIS_VERSION in DECISION_PINS, (
        f"ANALYSIS_VERSION {ANALYSIS_VERSION!r} has no decision pins: add its row"
    )
    assert decide() == DECISION_PINS[ANALYSIS_VERSION][corpus], (
        f"{corpus} decisions changed under {ANALYSIS_VERSION!r}: bump "
        "ANALYSIS_VERSION and pin the new counts in a new row"
    )
