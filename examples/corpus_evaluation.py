#!/usr/bin/env python3
"""Generate a scaled-down MySQL-like corpus and reproduce the headline
evaluation numbers on it: detection counts, pruning breakdown, DOK
ranking quality and a baseline comparison.

Run:  python examples/corpus_evaluation.py [scale]
"""

import sys

from repro.baselines import CoverityUnused, InferDeadStore
from repro.core import ValueCheck
from repro.corpus import generate_app
from repro.eval.metrics import precision_at, real_bug_count


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.15
    print(f"generating mysql corpus at scale {scale}...")
    app = generate_app("mysql", scale=scale, seed=7)
    project = app.project()
    print(
        f"  {len(project.sources)} files, {project.loc()} LoC, "
        f"{len(app.repo.commits)} commits, "
        f"{len(app.ledger.entries)} planted constructs "
        f"({len(app.ledger.bugs())} bugs)"
    )

    report = ValueCheck().analyze(project)
    reported = report.reported()
    real = real_bug_count(app.ledger, reported)
    print("\nValueCheck pipeline:")
    print(f"  cross-scope candidates: {len(report.cross_scope())}")
    for pruner, count in sorted(report.prune_stats.items()):
        print(f"    pruned by {pruner}: {count}")
    print(f"  reported: {len(reported)}  real bugs: {real}  "
          f"FP rate: {1 - real / len(reported):.0%}")

    cutoff = max(3, round(10 * scale * 2))
    top_real, top_n = precision_at(app.ledger, reported, cutoff)
    print(f"  precision@{cutoff} after DOK ranking: {top_real}/{top_n} "
          f"({top_real / top_n:.0%})")

    print("\nBaselines on the same corpus:")
    for baseline in (InferDeadStore(), CoverityUnused()):
        result = baseline.analyze(project)
        hits = 0
        for warning in result.warnings:
            entry = app.ledger.match_warning(warning.file, warning.function, warning.var)
            if entry is not None and entry.is_bug:
                hits += 1
        rate = 1 - hits / result.count() if result.count() else 0.0
        print(f"  {baseline.name:<10} found={result.count():<5} real≈{hits:<4} FP≈{rate:.0%}")

    print("\nTop of the ranked report:")
    for finding in reported[:8]:
        entry = app.ledger.match_finding(finding)
        verdict = "BUG" if entry is not None and entry.is_bug else "minor"
        print(
            f"  #{finding.rank:<3} fam={finding.familiarity:.2f} "
            f"[{finding.candidate.kind.value:<16}] "
            f"{finding.candidate.function}/{finding.candidate.var}  -> {verdict}"
        )


if __name__ == "__main__":
    main()
