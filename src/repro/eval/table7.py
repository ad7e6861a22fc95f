"""Table 7: scalability — whole-tree analysis time and incremental
per-commit time.

Full time covers parsing + the complete pipeline (the paper's artifact
measures the analysis end to end); incremental time replays the last N
commits through :class:`~repro.core.incremental.IncrementalAnalyzer` and
averages the per-commit cost.  Absolute numbers depend on corpus scale
and hardware (the paper says the same of its own artifact); the *shape*
to check is per-app ordering and incremental ≪ full."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.incremental import IncrementalAnalyzer
from repro.core.project import Project
from repro.core.valuecheck import ValueCheck, ValueCheckConfig
from repro.eval.suite import APP_ORDER, EvalSuite


@dataclass(frozen=True)
class Table7Row:
    app: str
    loc: int
    loc_paper: str
    full_seconds: float
    incremental_seconds: float
    commits_replayed: int


@dataclass
class Table7Result:
    rows: list[Table7Row]

    def render(self) -> str:
        lines = [
            "Table 7: scalability",
            f"{'Application':<14}{'#LOC':>9}{'(paper)':>9}{'Time':>10}{'Incr/commit':>13}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.app:<14}{row.loc:>9}{row.loc_paper:>9}"
                f"{row.full_seconds:>9.2f}s{row.incremental_seconds:>12.3f}s"
            )
        total_full = sum(row.full_seconds for row in self.rows)
        total_incr = sum(row.incremental_seconds for row in self.rows)
        lines.append(f"{'Total':<14}{sum(r.loc for r in self.rows):>9}{'31.3M':>9}{total_full:>9.2f}s{total_incr:>12.3f}s")
        return "\n".join(lines)


def run(
    suite: EvalSuite,
    replay_commits: int = 20,
    config: ValueCheckConfig | None = None,
) -> Table7Result:
    """Regenerate Table 7.  With ``config`` the full-analysis time is
    re-measured fresh under that engine configuration (executor/worker
    comparisons need ``module_cache=False`` so every module really runs)
    instead of reusing the suite's cached default run."""
    rows = []
    for name in APP_ORDER:
        run_state = suite.run(name)
        repo = run_state.app.repo
        if config is None:
            full_seconds = run_state.parse_seconds + run_state.report.seconds
        else:
            report = ValueCheck(config).analyze(run_state.project)
            full_seconds = run_state.parse_seconds + report.seconds
        count = min(replay_commits, len(repo.commits) - 1)
        start_rev = len(repo.commits) - 1 - count
        project = Project.from_repository(
            repo, rev=start_rev, build_config=set(run_state.app.build_config)
        )
        analyzer = IncrementalAnalyzer(project, rev=start_rev)
        total_incremental = 0.0
        for _ in range(count):
            total_incremental += analyzer.replay().seconds
        rows.append(
            Table7Row(
                app=run_state.app.profile.display,
                loc=run_state.project.loc(),
                loc_paper=run_state.app.profile.loc_paper,
                full_seconds=full_seconds,
                incremental_seconds=total_incremental / count if count else 0.0,
                commits_replayed=count,
            )
        )
    return Table7Result(rows=rows)
