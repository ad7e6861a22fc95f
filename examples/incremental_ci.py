#!/usr/bin/env python3
"""Use ValueCheck as a CI gate: analyse only what each commit changed.

§8.6 of the paper argues the analysis is cheap enough to run per commit
("under 5s for all the applications we evaluate").  This example replays
the last commits of a generated NFS-ganesha history through the
incremental analyzer, the way a pre-merge bot would, and fails the
"build" whenever a commit introduces a new cross-scope unused definition
that survives pruning.

Run:  python examples/incremental_ci.py
"""

from repro.core.incremental import IncrementalAnalyzer
from repro.core.project import Project
from repro.corpus import generate_app
from repro.vcs import Author

REPLAY = 10

GOOD_FN = """\
int read_lease_state(int fd);
int refresh_lease(int fd)
{
    int state;
    state = read_lease_state(fd);
    if (state < 0) { return state; }
    return 0;
}
"""


def main() -> None:
    app = generate_app("nfs-ganesha", scale=0.08, seed=21)
    repo = app.repo
    day = repo.head.day

    # Simulate today's merge queue: a teammate lands a clean function,
    # then a contributor's "refresh eagerly" patch clobbers the status
    # before its check — the kind of commit the gate exists to stop.
    repo.commit(Author("lease-owner"), "add lease refresh", {"fs/lease_ci.c": GOOD_FN}, day=day)
    buggy = GOOD_FN.replace(
        "    if (state < 0) { return state; }\n",
        "    state = 0;\n    if (state < 0) { return state; }\n",
    )
    repo.commit(
        Author("eager-contributor"),
        "always refresh eagerly",
        {"fs/lease_ci.c": buggy},
        day=day,
    )

    start = max(0, len(repo.commits) - 1 - REPLAY)
    print(f"history has {len(repo.commits)} commits; replaying the last {REPLAY}\n")

    analyzer = IncrementalAnalyzer(Project.from_repository(repo, rev=start), rev=start)
    gate_failures = 0
    total_seconds = 0.0
    for _ in range(min(REPLAY, len(repo.commits) - 1 - start)):
        result = analyzer.replay()
        total_seconds += result.seconds
        commit = repo.commit_by_id(result.commit_id)
        # A step re-decides whole changed files; the gate looks at the
        # functions this commit's diff touched.
        reported = [
            finding
            for finding in result.reported()
            if finding.candidate.function in result.changed_functions
        ]
        status = "FAIL" if reported else "ok"
        if reported:
            gate_failures += 1
        print(
            f"[{status:>4}] {commit.commit_id} {commit.author.name:<18} "
            f"files={len(result.changed_files)} fns={len(result.changed_functions)} "
            f"({result.seconds * 1000:.0f} ms) — {commit.message[:48]}"
        )
        for finding in reported:
            candidate = finding.candidate
            print(
                f"         new cross-scope unused def: {candidate.function}/{candidate.var} "
                f"({candidate.kind.value}) introduced by "
                f"{finding.authorship.introducing_author}"
            )

    print(
        f"\nreplayed {REPLAY} commits in {total_seconds:.2f}s "
        f"({total_seconds / REPLAY * 1000:.0f} ms/commit); "
        f"{gate_failures} commit(s) would have been blocked"
    )
    assert gate_failures >= 1, "the eager-contributor bug should trip the gate"


if __name__ == "__main__":
    main()
