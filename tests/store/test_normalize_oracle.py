"""Fingerprint line normalisation against its reference oracle.

Fingerprints hash normalised lines, so any difference between the fast
normaliser and the reference would silently re-key stored findings."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus import generate_app
from repro.corpus.generator import generate_rules_corpus
from repro.corpus.preliminary import generate_preliminary_corpus
from repro.corpus.profiles import PROFILES
from repro.store.fingerprint import normalize_line
from tests.store.normalize_reference import normalize_line_reference


def _corpus_lines() -> set[str]:
    snapshots = [generate_app(name, scale=0.05, seed=3).repo.snapshot_at() for name in PROFILES]
    snapshots.append(generate_rules_corpus(seed=3).repo.snapshot_at())
    snapshots.append(generate_preliminary_corpus(seed=3).repo.snapshot_at())
    return {
        line for snapshot in snapshots for text in snapshot.values() for line in text.split("\n")
    }


def test_every_corpus_line_normalises_like_the_oracle():
    lines = _corpus_lines()
    assert any("/*" in line for line in lines)  # the corpora comment with blocks only
    mismatches = [
        line for line in lines if normalize_line(line) != normalize_line_reference(line)
    ]
    assert mismatches == []


# Comment delimiters and whitespace dominate the alphabet, so openers,
# closers and their near-misses ("/ *", "*/*", "///") are common.
LINES = st.text(alphabet="/*/* \t\nab;=x", max_size=40)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(LINES)
def test_normalise_matches_the_oracle(line):
    assert normalize_line(line) == normalize_line_reference(line)
