"""The semantic packs' exact output on the rules-eval corpus, pinned.

``tests/test_decision_pins.py`` counts each pack's candidates; this list
pins every use-after-free and resource-leak candidate itself — its key,
its callee and its evidence lines — so a moved use line or a lost
evidence line fails even when the counts hold.  Both executors must
produce the same list.
"""

from __future__ import annotations

import pytest

from repro.core.findings import CandidateKind
from repro.corpus.generator import generate_rules_corpus
from repro.engine import AnalysisEngine

#: (key, callee, evidence_lines) of every semantic candidate of
#: ``generate_rules_corpus(seed=7)``, in engine output order.
SEMANTIC_CANDIDATES = [
    ("filesystem/handle_162.c:drain_zone_22:total23:10:use_after_free", "free", (9,)),
    ("memory/arena_156.c:load_inode_53:count54:7:resource_leak", "fopen", (9,)),
    ("memory/arena_156.c:load_xattr_63:nbytes64:15:resource_leak", "fopen", (17,)),
    ("memory/slab_168.c:load_datagram_57:pos58:14:resource_leak", "fopen", (16,)),
    ("memory/span_157.c:load_backlog_61:attr62:29:resource_leak", "fopen", (31,)),
    ("network/frag_159.c:drain_zone_25:code26:17:use_after_free", "free", (16,)),
    ("network/frag_164.c:load_inode_59:code60:7:resource_leak", "fopen", (9,)),
    ("network/frag_164.c:load_journal_55:pos56:32:resource_leak", "fopen", (34,)),
    ("network/neigh_161.c:drain_qdisc_31:mode32:9:use_after_free", "free", (8,)),
    ("network/session_166.c:drain_blockmap_28:err29:31:use_after_free", "free", (30,)),
    ("network/session_166.c:drain_endpoint_34:idx35:10:use_after_free", "free", (9,)),
    ("network/session_166.c:drain_layout_19:code20:18:use_after_free", "free", (17,)),
]

SEMANTIC_KINDS = (CandidateKind.USE_AFTER_FREE, CandidateKind.RESOURCE_LEAK)


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_semantic_candidates_match_the_pinned_list(executor):
    project = generate_rules_corpus(seed=7).project()
    run = AnalysisEngine(executor=executor, workers=2, cache=None).run(project)
    assert [
        (candidate.key, candidate.callee, candidate.evidence_lines)
        for candidate in run.candidates
        if candidate.kind in SEMANTIC_KINDS
    ] == SEMANTIC_CANDIDATES
