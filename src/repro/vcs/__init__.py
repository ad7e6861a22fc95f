"""MiniGit — the version-control substrate.

The real ValueCheck reads git metadata through GitPython: line-level blame
for the authorship lookup (§4.2) and per-file commit logs for the DOK
familiarity factors (§6).  MiniGit supplies the same two queries over
synthetic histories:

* :func:`repro.vcs.blame.blame` — line → (author, commit, day), computed
  by carrying attributions across Myers diffs of consecutive versions;
* :meth:`repro.vcs.repository.Repository.file_stats` — the FA/DL/AC
  counters the DOK model consumes.

Histories are linear (the corpus generator synthesises them).  Storage
is content-addressed, as in git: a :class:`~repro.vcs.objects.Commit`
holds only the paths it changed (path → new text, or None for a delete),
and the repository folds those changes into a snapshot when one is asked
for.  Blame walks a file's own commit log.  On disk, format 2 stores each
distinct text once, keyed by its SHA-256; format-1 files (one full
snapshot per commit) still load.
"""

from repro.vcs.diff import OpCode, myers_diff
from repro.vcs.objects import Author, Commit, day_to_iso, iso_to_day
from repro.vcs.repository import FileStats, Repository
from repro.vcs.blame import BlameIndex, LineBlame, blame

__all__ = [
    "BlameIndex",
    "OpCode",
    "myers_diff",
    "Author",
    "Commit",
    "day_to_iso",
    "iso_to_day",
    "FileStats",
    "Repository",
    "LineBlame",
    "blame",
]
