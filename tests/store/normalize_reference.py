"""Reference oracle for fingerprint line normalisation.

The character-by-character normaliser that fingerprints were first
defined by.  ``repro.store.fingerprint.normalize_line`` must return
exactly what this returns for every line; the differential tests in
``test_normalize_oracle.py`` check that.
"""

from __future__ import annotations


def normalize_line_reference(text: str) -> str:
    """One source line with comments stripped and whitespace collapsed.

    Handles ``//`` tails and single-line ``/* ... */`` blocks; a block
    comment left open truncates the line (the remainder is comment).
    """
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        if text.startswith("//", i):
            break
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                break
            i = end + 2
            continue
        out.append(text[i])
        i += 1
    return " ".join("".join(out).split())
