"""Assembling constructs into files and files into a MiniGit history.

The generation model:

* a **construct** is one planted pattern (a bug, a cursor, a benign peer
  call, …) rendered as tagged source lines.  Lines are tagged with a
  *round*: round 0 belongs to the file's creation commit (the owner),
  rounds 1/2 are later insertions by other developers (round 1 is an
  optional "warm-up" delivery that gives veterans history in the file,
  round 2 is the construct edit itself, dated by the construct's age);
* a **file plan** hosts several constructs plus a merged prelude
  (prototypes/typedefs, always round 0);
* the **repository assembler** walks every file's commits in global day
  order and replays them into a :class:`~repro.vcs.repository.Repository`,
  producing blame-accurate multi-author histories.

Insertion-only edits keep blame attribution exact (every generated line
is unique, so the Myers diff aligns unambiguously).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.corpus.ground_truth import GroundTruthEntry
from repro.errors import CorpusError
from repro.vcs.objects import Author
from repro.vcs.repository import Repository


@dataclass(frozen=True)
class TaggedLine:
    """One source line with its round tag (0 = creation)."""

    text: str
    round: int = 0


@dataclass
class SupportFunction:
    """A function this construct needs in *another* file (a callee or a
    caller), authored by a support-team developer."""

    lines: list[str]
    prelude: list[str] = field(default_factory=list)
    author_role: str = "support"  # 'support' | 'logging'


@dataclass
class Construct:
    """One planted pattern, ready for placement into a host file."""

    category: str
    function: str  # host function name (unique per construct)
    var: str  # ground-truth variable / callee key
    lines: list[TaggedLine] = field(default_factory=list)
    prelude: list[str] = field(default_factory=list)
    support: list[SupportFunction] = field(default_factory=list)
    intro_role: str = "owner"  # author of rounds 1/2: 'newcomer'|'veteran'|'owner'
    introduced_age: int = 0  # days before detection for round 2
    truth: GroundTruthEntry | None = None  # file filled at placement time

    def has_round(self, round_number: int) -> bool:
        return any(line.round == round_number for line in self.lines)


@dataclass
class FilePlan:
    """A host file: prelude + constructs, with its commit schedule."""

    path: str
    owner: Author
    creation_day: int
    prelude: list[str] = field(default_factory=list)
    constructs: list[Construct] = field(default_factory=list)
    # Per-construct author of rounds 1/2 (resolved from intro_role).
    intro_authors: dict[int, Author] = field(default_factory=dict)
    intro_days: dict[int, int] = field(default_factory=dict)

    def add_construct(self, construct: Construct, intro_author: Author, intro_day: int) -> None:
        index = len(self.constructs)
        self.constructs.append(construct)
        self.intro_authors[index] = intro_author
        self.intro_days[index] = intro_day
        for line in construct.prelude:
            if line not in self.prelude:
                self.prelude.append(line)

    # -- rendering ---------------------------------------------------------

    def _visible_lines(self, visible: set[tuple[int, int]]) -> str:
        parts: list[str] = list(self.prelude)
        if parts:
            parts.append("")
        for index, construct in enumerate(self.constructs):
            emitted = False
            for line in construct.lines:
                if (index, line.round) in visible:
                    parts.append(line.text)
                    emitted = True
            if emitted:
                parts.append("")
        while parts and parts[-1] == "":
            parts.pop()
        return "\n".join(parts) + "\n"

    def commits(self) -> list[tuple[int, Author, str, set[tuple[int, int]]]]:
        """The file's commit schedule: (day, author, message, cumulative
        visible (construct, round) set), in day order."""
        events: list[tuple[int, Author, str, list[tuple[int, int]]]] = []
        creation_rounds = [(index, 0) for index in range(len(self.constructs))]
        events.append((self.creation_day, self.owner, f"add {self.path}", creation_rounds))
        for index, construct in enumerate(self.constructs):
            author = self.intro_authors[index]
            day = self.intro_days[index]
            if construct.has_round(1):
                events.append(
                    (
                        max(self.creation_day + 1, day - 45),
                        author,
                        f"update {self.path}: housekeeping around {construct.function}",
                        [(index, 1)],
                    )
                )
            if construct.has_round(2):
                events.append(
                    (
                        max(self.creation_day + 2, day),
                        author,
                        f"update {self.path}: rework {construct.function}",
                        [(index, 2)],
                    )
                )
        events.sort(key=lambda event: event[0])
        visible: set[tuple[int, int]] = set()
        out: list[tuple[int, Author, str, set[tuple[int, int]]]] = []
        for day, author, message, rounds in events:
            visible |= set(rounds)
            out.append((day, author, message, set(visible)))
        return out


def assemble_repository(
    name: str,
    plans: list[FilePlan],
    rng: random.Random,
    extra_files: dict[str, tuple[Author, int, str]] | None = None,
) -> Repository:
    """Replay every file plan's commits, globally ordered by day.

    ``extra_files`` maps path → (author, day, content) for one-shot files
    (e.g. the kernel marker header)."""
    events: list[tuple[int, int, str, Author, str, str]] = []  # day, seq, path, author, msg, content
    sequence = 0
    for plan in plans:
        for day, author, message, visible in plan.commits():
            content = plan._visible_lines(visible)
            events.append((day, sequence, plan.path, author, message, content))
            sequence += 1
    for path, (author, day, content) in (extra_files or {}).items():
        events.append((day, sequence, path, author, f"add {path}", content))
        sequence += 1
    events.sort(key=lambda event: (event[0], event[1]))
    if not events:
        raise CorpusError("nothing to assemble")
    repo = Repository(name)
    for day, _, path, author, message, content in events:
        repo.commit(author, message, {path: content}, day=day)
    return repo
