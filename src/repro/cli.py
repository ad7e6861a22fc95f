"""Command-line interface.

Subcommands::

    valuecheck analyze <dir> [--repo repo.json] [--config MACRO ...]
        Analyze a directory of MiniC sources.  With --repo (a MiniGit
        JSON file) the full cross-scope + DOK pipeline runs; without it
        only detection + pruning (no authorship) is possible.

    valuecheck generate-corpus <app> [--scale S] [--seed N] --out DIR
        Materialise one synthetic application: sources + repo.json.

    valuecheck evaluate [--scale S] [--seed N] [--out DIR]
        Run every table/figure experiment and write the result bundle
        (the equivalent of the artifact's run.sh → result/).

    valuecheck stats <run_stats.jsonl>
        Summarise runs recorded with ``analyze --stats-out``: per-layer
        self time plus the residual, and per-pruner kill counts, per run.

    valuecheck snapshot <dir> --store findings.db [--rev LABEL]
        Analyze and record the findings in the persistent store
        (docs/STORE.md) as the new baseline snapshot.

    valuecheck gate <dir> --store findings.db [--baseline FILE]
        Analyze and compare against the last snapshot: exits non-zero
        only on new (or reopened) findings not accepted in the
        ``.valuecheck-baseline.json`` baseline file.

    valuecheck triage <store> [--accept FP --justification ... --author ...]
        Inspect the store's lifecycle state and record accept decisions
        into the baseline file.

    valuecheck serve [--port P] [--stdio] [--workers N] ...
        Run the warm-state analysis daemon (docs/SERVICE.md): projects
        stay parsed between requests and ``analyze_diff`` re-analyses
        only changed modules.

    valuecheck route [--port P] [--workers N] [--probe-interval S] ...
        Run the sharded front end (docs/OPERATIONS.md): consistent-hash
        project shards across N worker processes, health-check and
        respawn them, migrate sessions off dead workers.

    valuecheck client <request-type> [--port P] [--params JSON] [--trace-id T]
        Send one request to a running daemon and print the response.

    valuecheck profile <dir> [--runs N] [--interval S] [--out FILE]
        Run the analysis under the sampling profiler and print per-phase
        CPU attribution; --out writes flamegraph folded stacks.

    valuecheck events [--follow] [--since N] [--kind K]
        Stream a running daemon's lifecycle event journal.

    valuecheck top [--interval S] [--iterations N]
        Live dashboard over a running daemon's health/stats.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import json
import sys
from pathlib import Path

from repro import obs
from repro.core.project import Project
from repro.core.valuecheck import ValueCheck, ValueCheckConfig
from repro.corpus.generator import generate_app
from repro.corpus.profiles import PROFILES
from repro.engine.executors import EXECUTOR_KINDS, positive_int
from repro.rules import UnknownRuleError, normalize_rules
from repro.vcs.repository import Repository


def _parse_rules(raw: str | None) -> tuple[str, ...] | None:
    """``--rules a,b`` → validated name tuple (None passes through).
    Raises :class:`UnknownRuleError` naming the registered packs."""
    if raw is None:
        return None
    names = [name.strip() for name in raw.split(",") if name.strip()]
    return normalize_rules(names)


def _baseline_keys(path: str) -> set[tuple[str, str, str, str]]:
    """Finding keys from an earlier report CSV.  Line numbers shift as
    files evolve, so the key is (file, function, variable, kind)."""
    keys: set[tuple[str, str, str, str]] = set()
    with open(path, newline="") as handle:
        for row in csv_module.DictReader(handle):
            keys.add(
                (
                    row.get("file", ""),
                    row.get("function", ""),
                    row.get("variable", ""),
                    row.get("kind", ""),
                )
            )
    return keys


def _finding_key(finding) -> tuple[str, str, str, str]:
    candidate = finding.candidate
    return (candidate.file, candidate.function, candidate.var, candidate.kind.value)


def _cmd_analyze(args: argparse.Namespace) -> int:
    source_dir = Path(args.directory)
    if not source_dir.is_dir():
        print(f"error: {source_dir} is not a directory", file=sys.stderr)
        return 2
    repo = Repository.load(args.repo) if args.repo else None
    sources = {
        str(path.relative_to(source_dir)): path.read_text()
        for path in sorted(source_dir.rglob("*.c"))
    }
    if not sources:
        print("error: no .c files found", file=sys.stderr)
        return 2
    try:
        rules = _parse_rules(getattr(args, "rules", None))
    except UnknownRuleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # One ambient telemetry covers the frontend AND analysis, so the
    # exported trace is a single span tree and the stats record's layers
    # add up to the wall time of both.
    telemetry = obs.Telemetry.fresh()
    started = obs.monotonic()
    with obs.use(telemetry):
        project = Project.from_sources(
            sources, name=source_dir.name, repo=repo, build_config=set(args.config or ())
        )
        config = ValueCheckConfig(
            use_authorship=repo is not None,
            executor=args.executor,
            workers=args.workers,
            module_cache=not args.no_module_cache,
            rules=rules,
        )
        report = ValueCheck(config).analyze(project)
    wall_seconds = obs.monotonic() - started
    print(report.summary())
    print()
    reported = report.reported()
    if args.baseline:
        known = _baseline_keys(args.baseline)
        before = len(reported)
        reported = [finding for finding in reported if _finding_key(finding) not in known]
        print(f"baseline suppressed {before - len(reported)} known finding(s); {len(reported)} new")
        print()
    for finding in reported[: args.top]:
        candidate = finding.candidate
        familiarity = (
            f"  familiarity={finding.familiarity:.2f}" if finding.familiarity is not None else ""
        )
        print(
            f"#{finding.rank:<3} {candidate.file}:{candidate.line} "
            f"[{candidate.kind.value}] {candidate.function}/{candidate.var}{familiarity}"
        )
    if args.explain is not None:
        fragment = args.explain if args.explain != "" else None
        print()
        print(report.explain(fragment), end="")
    if args.explain_json:
        Path(args.explain_json).write_text(report.explain_jsonl())
        print(f"\nwrote provenance JSONL to {args.explain_json}")
    if args.csv:
        report.to_csv(args.csv)
        print(f"\nwrote {args.csv}")
    if args.sarif:
        report.to_sarif(args.sarif, include_pruned=args.sarif_include_pruned)
        print(f"wrote SARIF 2.1.0 log to {args.sarif}")
    if args.trace:
        Path(args.trace).write_text(json.dumps(telemetry.tracer.to_chrome(), indent=1) + "\n")
        print(f"wrote Chrome trace to {args.trace} (load in chrome://tracing or ui.perfetto.dev)")
    if args.trace_tree:
        print()
        print(telemetry.tracer.render_tree())
    if args.stats_out:
        obs.write_jsonl(args.stats_out, report.stats_record(wall_seconds))
        print(f"appended run record to {args.stats_out}")
    if args.prometheus:
        Path(args.prometheus).write_text(obs.to_prometheus(report.metrics))
        print(f"wrote Prometheus exposition to {args.prometheus}")
    if not report.converged:
        print("WARNING: Andersen solver did not converge on every module; "
              "findings may be incomplete", file=sys.stderr)
    return 0


def _project_and_report(args: argparse.Namespace):
    """Shared analyze step for the store subcommands; returns
    ``(project, report)`` or ``(None, exit_code)`` on input errors."""
    source_dir = Path(args.directory)
    if not source_dir.is_dir():
        print(f"error: {source_dir} is not a directory", file=sys.stderr)
        return None, 2
    repo = Repository.load(args.repo) if args.repo else None
    sources = {
        str(path.relative_to(source_dir)): path.read_text()
        for path in sorted(source_dir.rglob("*.c"))
    }
    if not sources:
        print("error: no .c files found", file=sys.stderr)
        return None, 2
    project = Project.from_sources(
        sources, name=source_dir.name, repo=repo, build_config=set(args.config or ())
    )
    try:
        rules = _parse_rules(getattr(args, "rules", None))
    except UnknownRuleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2
    config = ValueCheckConfig(use_authorship=repo is not None, rules=rules)
    return project, ValueCheck(config).analyze(project)


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.store import FindingsStore, project_sources

    project, report = _project_and_report(args)
    if project is None:
        return report
    store = FindingsStore.open(args.store)
    rev = args.rev or f"snapshot-{len(store.snapshots()) + 1}"
    diff = store.record_snapshot(report.findings, project_sources(project), rev=rev)
    counts = diff.counts()
    stats = store.stats()
    print(f"recorded snapshot {rev!r} in {args.store}")
    print(
        f"  findings: {counts['new']} new, {counts['persistent']} persistent, "
        f"{counts['fixed']} fixed, {counts['reopened']} reopened"
    )
    print(
        f"  store: {stats['active']} active / {stats['entries']} tracked, "
        f"{stats['snapshots']} snapshot(s)"
    )
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    from repro.core.sarif import write_sarif
    from repro.store import (
        BASELINE_FILENAME,
        BaselineFile,
        FindingsStore,
        diff_to_sarif,
        evaluate_gate,
        project_sources,
    )

    project, report = _project_and_report(args)
    if project is None:
        return report
    store = FindingsStore.open(args.store)
    try:
        diff = store.diff(
            report.findings,
            project_sources(project),
            rev="worktree",
            baseline_rev=args.baseline_rev,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    baseline_path = Path(args.baseline) if args.baseline else (
        Path(args.directory) / BASELINE_FILENAME
    )
    baseline = BaselineFile.load(baseline_path)
    result = evaluate_gate(diff, baseline)
    print(result.summary())
    if args.sarif:
        write_sarif(
            diff_to_sarif(diff, project=project.name, baseline=baseline), args.sarif
        )
        print(f"wrote SARIF 2.1.0 log to {args.sarif}")
    return result.exit_code


def _cmd_triage(args: argparse.Namespace) -> int:
    from repro.store import (
        BASELINE_FILENAME,
        BaselineEntry,
        BaselineFile,
        FindingsStore,
    )

    if not Path(args.store).exists():
        print(f"error: store {args.store} not found", file=sys.stderr)
        return 2
    store = FindingsStore.open(args.store)
    baseline_path = Path(args.baseline) if args.baseline else Path(BASELINE_FILENAME)
    baseline = BaselineFile.load(baseline_path)

    if args.accept:
        matches = store.find(args.accept)
        if not matches:
            # A finding the gate just reported as new is not stored yet;
            # a full fingerprint (as printed by `gate`) is accepted as-is
            # so the fail → review → accept loop needs no snapshot.
            if len(args.accept) == 32:
                baseline.add(
                    BaselineEntry(
                        fingerprint=args.accept,
                        justification=args.justification,
                        author=args.author,
                    )
                )
                baseline.save(baseline_path)
                print(f"accepted {args.accept[:12]} into {baseline_path}")
                return 0
            print(f"error: no stored finding matches {args.accept!r}", file=sys.stderr)
            return 2
        if len(matches) > 1:
            print(
                f"error: {args.accept!r} is ambiguous "
                f"({len(matches)} matches); use more fingerprint digits",
                file=sys.stderr,
            )
            return 2
        row = matches[0]
        baseline.add(
            BaselineEntry(
                fingerprint=row.fingerprint,
                justification=args.justification,
                author=args.author,
                accepted_rev=row.last_seen,
                kind=row.kind,
                file=row.file,
                function=row.function,
                var=row.var,
            )
        )
        baseline.save(baseline_path)
        print(
            f"accepted {row.fingerprint[:12]} ({row.file} {row.function}/{row.var} "
            f"[{row.kind}]) into {baseline_path}"
        )
        return 0

    accepted = {entry.fingerprint for entry in baseline.entries}
    show = args.show
    rows = [
        row
        for row in sorted(
            store.entries().values(),
            key=lambda r: (r.status, r.file, r.function, r.var, r.fingerprint),
        )
        if show == "all" or row.status == show
    ]
    snapshots = store.snapshots()
    latest = snapshots[-1].rev if snapshots else "<none>"
    print(
        f"store {args.store}: {len(rows)} {show} finding(s), "
        f"latest snapshot {latest!r}, baseline {baseline_path} "
        f"({len(baseline)} accepted)"
    )
    for row in rows:
        mark = "accepted" if row.fingerprint in accepted else row.status
        print(
            f"  {row.fingerprint[:12]}  {row.file}:{row.line} "
            f"[{row.kind}] {row.function}/{row.var}  {mark}"
        )
    return 0


def _cmd_run_stats(args: argparse.Namespace) -> int:
    """Summarise JSONL run records produced by ``analyze --stats-out``."""
    path = Path(args.stats_file)
    if not path.exists():
        print(f"error: {path} not found", file=sys.stderr)
        return 2
    records = obs.read_jsonl(path)
    print(obs.render_stats_table(records), end="")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    app = generate_app(args.app, scale=args.scale, seed=args.seed)
    out = Path(args.out)
    app.repo.checkout_to(out / "src")
    app.repo.save(out / "repo.json")
    app.ledger.save(out / "ground_truth.json")
    print(
        f"generated {args.app} at scale {args.scale}: "
        f"{len(app.repo.files())} files, {len(app.repo.commits)} commits, "
        f"{len(app.ledger.entries)} planted constructs"
    )
    print(f"sources:      {out / 'src'}")
    print(f"history:      {out / 'repo.json'}")
    print(f"ground truth: {out / 'ground_truth.json'}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    """Score a report CSV against a corpus's ground truth."""
    from repro.corpus.ground_truth import GroundTruthLedger

    ledger = GroundTruthLedger.load(args.truth)
    reported: list[tuple[str, str, str]] = []
    with open(args.report, newline="") as handle:
        for row in csv_module.DictReader(handle):
            reported.append((row["file"], row["function"], row["variable"]))
    matched_bugs: set[tuple[str, str, str]] = set()
    false_positives = 0
    for key in reported:
        entry = ledger.lookup(*key)
        if entry is not None and entry.is_bug:
            matched_bugs.add(entry.join_key)
        else:
            false_positives += 1
    reportable = [
        entry for entry in ledger.bugs() if entry.expected_pruner is None
    ]
    precision = len(matched_bugs) / len(reported) if reported else 0.0
    recall = len(matched_bugs) / len(reportable) if reportable else 0.0
    print(f"report:            {args.report}")
    print(f"findings:          {len(reported)}")
    print(f"real bugs found:   {len(matched_bugs)} of {len(reportable)}")
    print(f"false positives:   {false_positives}")
    print(f"precision:         {precision:.1%}")
    print(f"recall:            {recall:.1%}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.corpus.ground_truth import GroundTruthLedger
    from repro.corpus.stats import collect_stats

    base = Path(args.directory)
    repo_path = base / "repo.json"
    if not repo_path.exists():
        print(f"error: {repo_path} not found", file=sys.stderr)
        return 2
    repo = Repository.load(repo_path)
    ledger = None
    truth_path = base / "ground_truth.json"
    if truth_path.exists():
        ledger = GroundTruthLedger.load(truth_path)
    print(collect_stats(repo, ledger=ledger).render())
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.eval.runner import run_all

    run = run_all(scale=args.scale, seed=args.seed)
    print(run.render())
    if args.out:
        run.save(args.out)
        print(f"\nwrote result bundle to {args.out}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run the pipeline under the sampling profiler and report where the
    CPU goes, per pipeline phase (innermost open span)."""
    if args.runs < 1:
        print("error: --runs must be at least 1", file=sys.stderr)
        return 2
    source_dir = Path(args.directory)
    if not source_dir.is_dir():
        print(f"error: {source_dir} is not a directory", file=sys.stderr)
        return 2
    repo = Repository.load(args.repo) if args.repo else None
    sources = {
        str(path.relative_to(source_dir)): path.read_text()
        for path in sorted(source_dir.rglob("*.c"))
    }
    if not sources:
        print("error: no .c files found", file=sys.stderr)
        return 2
    telemetry = obs.Telemetry.fresh()
    profiler = obs.SamplingProfiler(
        interval=args.interval, phase_resolver=telemetry.tracer.active_name
    )
    config = ValueCheckConfig(
        use_authorship=repo is not None,
        executor=args.executor,
        module_cache=False,  # cached runs sample nothing; profile real work
    )
    with obs.use(telemetry), profiler:
        for _ in range(args.runs):
            project = Project.from_sources(
                sources,
                name=source_dir.name,
                repo=repo,
                build_config=set(args.config or ()),
            )
            ValueCheck(config).analyze(project)
    stats = profiler.stats()
    print(
        f"profiled {args.runs} run(s): {stats['samples']} samples over "
        f"{stats['active_seconds']:.2f}s at {args.interval * 1e3:.1f}ms intervals"
    )
    print()
    print(profiler.render_phases(), end="")
    if args.out:
        Path(args.out).write_text(profiler.render_folded())
        print(f"\nwrote folded stacks to {args.out} (feed to flamegraph.pl/speedscope)")
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    """Stream a running daemon's lifecycle event journal."""
    import time

    from repro.service import ServiceClient, ServiceError

    try:
        client = ServiceClient(host=args.host, port=args.port)
    except OSError as error:
        print(f"error: cannot reach {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    cursor = args.since
    # A router's merged cluster stream pages with per-source cursors
    # (seqs are per-journal); it returns them on every response and we
    # hand them straight back — `events --follow` is topology-transparent.
    cursors: dict | None = None
    polls = 0
    with client:
        while True:
            try:
                result = client.events(
                    since=cursor, limit=args.limit, kind=args.kind, cursors=cursors
                )
            except ServiceError as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            if isinstance(result.get("cursors"), dict):
                cursors = result["cursors"]
            for event in result["events"]:
                cursor = max(cursor, event["seq"]) if cursors is None else cursor
                print(json.dumps(event, sort_keys=True))
            polls += 1
            if not args.follow:
                break
            if args.iterations is not None and polls >= args.iterations:
                break
            try:
                time.sleep(args.poll_interval)
            except KeyboardInterrupt:
                break
    return 0


def _sparkline(series: list, width: int = 24) -> str:
    """Unicode block sparkline of the last ``width`` samples, peak-scaled."""
    blocks = "▁▂▃▄▅▆▇█"
    tail = [max(float(value), 0.0) for value in series[-width:]]
    if not tail:
        return ""
    peak = max(tail)
    if peak <= 0:
        return blocks[0] * len(tail)
    return "".join(
        blocks[min(int(value / peak * (len(blocks) - 1) + 0.5), len(blocks) - 1)]
        for value in tail
    )


def _render_cluster_top(stats: dict) -> str:
    """The cluster mode of `valuecheck top`: per-shard rows + heatmaps
    from the router's scrape-loop time series."""
    health = stats.get("health") or {}
    timeseries = (stats.get("timeseries") or {}).get("sources", {})
    lines = [
        f"valuecheck cluster  status={health.get('status', '?')}  "
        f"workers={health.get('alive_workers', 0)}/{len(health.get('workers', ()))}  "
        f"sessions={stats.get('sessions_total', 0)}  "
        f"migrations={stats.get('migrations', 0)}  "
        f"uptime={health.get('uptime_seconds', 0.0):.1f}s",
        "",
        "router slo       status     p99        burn   window",
    ]
    for slo in health.get("slos", ()):
        p99 = slo.get("p99_seconds")
        lines.append(
            f"  {slo.get('name', '?'):<15}{slo.get('status', '?'):<9}"
            f"{(f'{p99 * 1e3:8.1f}ms' if p99 is not None else '       --'):>10}"
            f"{slo.get('burn_rate', 0.0):>8.2f}  {slo.get('window_count', 0)}"
        )
    lines.append("")
    lines.append("slot  gen  status        sess  queue  forwarded   req/s    burn")
    for worker in health.get("workers", ()):
        slot = worker.get("slot", "?")
        source = timeseries.get(f"worker-{slot}", {})
        rates = source.get("rates", {})
        lines.append(
            f"  {slot!s:<4}{worker.get('generation', 0):>3}  "
            f"{worker.get('status', '?'):<12}"
            f"{worker.get('sessions', 0) or 0:>6}"
            f"{worker.get('queue_depth', 0) or 0:>7}"
            f"{worker.get('requests_forwarded', 0):>11}"
            f"{rates.get('service.requests', 0.0):>8.2f}"
            f"{worker.get('burn_rate', 0.0):>8.2f}"
        )
    # Per-shard request-rate heatmap over the scrape window, plus the
    # session heatmap: how warm state is spread across the shards.
    heat = [
        (worker.get("slot", 0), timeseries.get(f"worker-{worker.get('slot')}", {}))
        for worker in health.get("workers", ())
    ]
    if any(source.get("series") for _slot, source in heat):
        lines.append("")
        lines.append("shard req/s heatmap (oldest → newest scrape):")
        for slot, source in heat:
            series = source.get("series") or []
            rate = series[-1] if series else 0.0
            lines.append(f"  {slot!s:<4}{_sparkline(series):<26}{rate:>8.2f}/s")
    sessions = [
        (worker.get("slot", 0), int(worker.get("sessions") or 0))
        for worker in health.get("workers", ())
    ]
    if sessions:
        peak = max((count for _slot, count in sessions), default=0)
        lines.append("")
        lines.append("session heatmap (warm sessions per shard):")
        for slot, count in sessions:
            bar = "█" * count if peak <= 24 else "█" * max(int(count / peak * 24), 1)
            lines.append(f"  {slot!s:<4}{bar:<26}{count}")
    journal = health.get("journal", {})
    traces = health.get("traces", {})
    lines.append("")
    lines.append(
        f"journal {journal.get('retained', 0)}/{journal.get('capacity', 0)} "
        f"(dropped {journal.get('dropped', 0)})   "
        f"router traces {traces.get('retained', 0)}/{traces.get('capacity', 0)}"
        + (
            f" ({traces.get('pinned', 0)} pinned)"
            if "pinned" in traces
            else ""
        )
    )
    return "\n".join(lines) + "\n"


def _render_top(stats: dict) -> str:
    """One refresh of the `valuecheck top` dashboard from a stats response."""
    if stats.get("role") == "router":
        return _render_cluster_top(stats)
    health = stats.get("health", {})
    lines = [
        f"valuecheck service  status={health.get('status', '?')}  "
        f"uptime={health.get('uptime_seconds', 0.0):.1f}s  "
        f"protocol={health.get('protocol', '?')}",
        f"queue {health.get('queue_depth', 0)}/{health.get('queue_capacity', 0)}  "
        f"inflight={health.get('inflight', 0)}  workers={health.get('workers', 0)}  "
        f"sessions={health.get('sessions', 0)}",
        "",
        "slo              status     p99        burn   window",
    ]
    for slo in health.get("slos", ()):
        p99 = slo.get("p99_seconds")
        lines.append(
            f"  {slo.get('name', '?'):<15}{slo.get('status', '?'):<9}"
            f"{(f'{p99 * 1e3:8.1f}ms' if p99 is not None else '       --'):>10}"
            f"{slo.get('burn_rate', 0.0):>8.2f}  {slo.get('window_count', 0)}"
        )
    journal = health.get("journal", {})
    traces = health.get("traces", {})
    profiler = health.get("profiler", {})
    lines.append("")
    lines.append(
        f"journal {journal.get('retained', 0)}/{journal.get('capacity', 0)} "
        f"(dropped {journal.get('dropped', 0)})   "
        f"traces {traces.get('retained', 0)}/{traces.get('capacity', 0)}   "
        f"profiler {'on' if profiler.get('running') else 'off'} "
        f"({profiler.get('samples', 0)} samples)"
    )
    phases = stats.get("profile_phases") or {}
    if phases:
        lines.append("")
        lines.append("phase seconds (sampled):")
        for phase, seconds in sorted(phases.items(), key=lambda kv: -kv[1])[:8]:
            lines.append(f"  {phase:<24}{seconds:>9.3f}")
    sessions = stats.get("sessions") or []
    if sessions:
        lines.append("")
        lines.append("session          modules    loc  analyses  diffs  idle")
        for row in sessions:
            lines.append(
                f"  {row.get('project_id', '?'):<15}{row.get('modules', 0):>7}"
                f"{row.get('loc', 0):>7}{row.get('analyze_count', 0):>10}"
                f"{row.get('diff_count', 0):>7}  {row.get('idle_seconds', 0.0):.1f}s"
            )
    return "\n".join(lines) + "\n"


def _cmd_top(args: argparse.Namespace) -> int:
    """Refreshing terminal dashboard over a running daemon."""
    import time

    from repro.service import ServiceClient, ServiceError

    shown = 0
    while True:
        try:
            with ServiceClient(host=args.host, port=args.port) as client:
                stats = client.stats()
        except OSError as error:
            print(
                f"error: cannot reach {args.host}:{args.port}: {error}",
                file=sys.stderr,
            )
            return 2
        except ServiceError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if shown and sys.stdout.isatty():
            print("\x1b[2J\x1b[H", end="")  # clear + home between refreshes
        print(_render_top(stats), end="")
        shown += 1
        if args.iterations is not None and shown >= args.iterations:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, serve_stdio

    from repro.obs import DEFAULT_SLOS, SloConfig

    slos = DEFAULT_SLOS
    if args.slo_target is not None or args.slo_error_budget is not None:
        base = DEFAULT_SLOS[0]
        slos = (
            SloConfig(
                name=base.name,
                target_seconds=(
                    args.slo_target if args.slo_target is not None else base.target_seconds
                ),
                error_budget=(
                    args.slo_error_budget
                    if args.slo_error_budget is not None
                    else base.error_budget
                ),
                window_seconds=base.window_seconds,
            ),
        ) + DEFAULT_SLOS[1:]
    config = ServiceConfig(
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        request_timeout=args.request_timeout,
        max_sessions=args.max_sessions,
        max_session_loc=args.max_session_loc,
        executor=args.executor,
        journal_path=args.journal,
        slos=slos,
        profiler=not args.no_profiler,
        profile_interval=args.profile_interval,
    )
    if args.stdio:
        service = serve_stdio(config)
    else:
        from repro.service import AnalysisService, ServiceServer
        from repro.service.server import install_signal_handlers

        service = AnalysisService(config).start()
        server = ServiceServer(service, host=args.host, port=args.port)
        install_signal_handlers(service)  # SIGTERM drains like Ctrl-C
        host, port = server.address  # the actual port, even when --port 0
        print(
            f"valuecheck service listening on {host}:{port} "
            f"({config.workers} workers, queue depth {config.queue_capacity}; "
            "Ctrl-C, SIGTERM, or a shutdown request stops it)",
            file=sys.stderr,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            service.shutdown()
        finally:
            server.server_close()
    if args.stats_out:
        obs.write_jsonl(args.stats_out, service.stats_record())
        print(f"appended service record to {args.stats_out}", file=sys.stderr)
    if args.prometheus:
        Path(args.prometheus).write_text(obs.to_prometheus(service.metrics.snapshot()))
        print(f"wrote Prometheus exposition to {args.prometheus}", file=sys.stderr)
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.service import Router, RouterConfig, ServiceServer, WorkerSpec
    from repro.service.server import install_signal_handlers

    spec = WorkerSpec(
        threads=args.worker_threads,
        queue_capacity=args.queue_capacity,
        request_timeout=args.request_timeout,
        max_sessions=args.max_sessions,
        max_session_loc=args.max_session_loc,
        executor=args.executor,
    )
    config = RouterConfig(
        workers=args.workers,
        spec=spec,
        vnodes=args.vnodes,
        probe_interval=args.probe_interval,
        probe_timeout=args.probe_timeout,
        journal_path=args.journal,
        telemetry=not args.no_telemetry,
        scrape_interval=args.scrape_interval,
        trace_capacity=args.trace_capacity,
    )
    router = Router(config).start()
    install_signal_handlers(router)  # SIGTERM drains workers, then exits
    server = ServiceServer(router, host=args.host, port=args.port)
    host, port = server.address
    print(
        f"valuecheck router listening on {host}:{port} "
        f"({config.workers} worker processes, probe every {config.probe_interval}s; "
        "Ctrl-C, SIGTERM, or a shutdown request stops it)",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        router.shutdown()
    finally:
        server.server_close()
        if not router.stopped:
            router.shutdown()
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError

    raw = args.params or ""
    if raw.startswith("@"):  # large payloads (e.g. a repo snapshot) via file
        try:
            raw = Path(raw[1:]).read_text()
        except OSError as error:
            print(f"error: cannot read params file: {error}", file=sys.stderr)
            return 2
    try:
        params = json.loads(raw) if raw else {}
    except ValueError as error:
        print(f"error: --params is not valid JSON: {error}", file=sys.stderr)
        return 2
    if not isinstance(params, dict):
        print("error: --params must be a JSON object", file=sys.stderr)
        return 2
    try:
        client = ServiceClient(host=args.host, port=args.port)
    except OSError as error:
        print(f"error: cannot reach {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    with client:
        try:
            result = client.request(
                args.type, params, retries=args.retries, trace_id=args.trace_id
            )
        except ServiceError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if args.trace_id and client.last_trace_id == args.trace_id:
            print(f"trace_id: {args.trace_id}", file=sys.stderr)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valuecheck",
        description="ValueCheck reproduction: bug detection from cross-scope unused definitions",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="analyze a MiniC source tree")
    analyze.add_argument("directory")
    analyze.add_argument("--repo", help="MiniGit repo.json for authorship + ranking")
    analyze.add_argument("--config", nargs="*", help="enabled build macros")
    analyze.add_argument("--csv", help="write the report as CSV")
    analyze.add_argument(
        "--sarif",
        help="write the report as a SARIF 2.1.0 log (GitHub code scanning etc.)",
    )
    analyze.add_argument(
        "--sarif-include-pruned",
        action="store_true",
        help="also export pruned candidates as suppressed SARIF results",
    )
    analyze.add_argument(
        "--explain",
        nargs="?",
        const="",
        default=None,
        metavar="FINDING",
        help="print each candidate's decision trail (detection, cross-scope "
        "evidence, pruner verdicts, DOK breakdown); optionally filter by a "
        "finding id / file / file:line fragment",
    )
    analyze.add_argument(
        "--explain-json",
        metavar="PATH",
        help="write the provenance records as JSONL (one candidate per line, "
        "byte-identical across executors)",
    )
    analyze.add_argument(
        "--baseline",
        help="an earlier report CSV; only findings not present in it are shown",
    )
    analyze.add_argument("--top", type=int, default=20, help="findings to print")
    analyze.add_argument(
        "--executor",
        choices=EXECUTOR_KINDS,
        default="serial",
        help="how per-module analysis is scheduled (default: serial)",
    )
    analyze.add_argument(
        "--workers",
        type=positive_int,
        default=None,
        help="worker count for the process executor (default: all cores)",
    )
    analyze.add_argument(
        "--no-module-cache",
        action="store_true",
        help="disable the content-addressed per-module result cache",
    )
    analyze.add_argument(
        "--rules",
        metavar="PACK[,PACK...]",
        help="comma-separated rule packs to run (default: all registered; "
        "see docs/RULES.md)",
    )
    analyze.add_argument(
        "--trace",
        help="write the run's span tree as Chrome trace-event JSON",
    )
    analyze.add_argument(
        "--trace-tree",
        action="store_true",
        help="print the span tree (human-readable) after the report",
    )
    analyze.add_argument(
        "--stats-out",
        help="append this run's metrics record to a JSONL stats file",
    )
    analyze.add_argument(
        "--prometheus",
        help="write the run's metrics in Prometheus text exposition format",
    )
    analyze.set_defaults(func=_cmd_analyze)

    profile = subparsers.add_parser(
        "profile",
        help="run the analysis under the sampling profiler (per-phase CPU attribution)",
    )
    profile.add_argument("directory")
    profile.add_argument("--repo", help="MiniGit repo.json for authorship + ranking")
    profile.add_argument("--config", nargs="*", help="enabled build macros")
    profile.add_argument(
        "--runs", type=int, default=3, help="analysis passes to sample (default: 3)"
    )
    profile.add_argument(
        "--interval",
        type=float,
        default=0.005,
        help="sampling interval in seconds (default: 0.005)",
    )
    profile.add_argument(
        "--executor",
        choices=EXECUTOR_KINDS,
        default="serial",
        help="how per-module analysis is scheduled (default: serial)",
    )
    profile.add_argument("--out", help="write flamegraph folded stacks to this file")
    profile.set_defaults(func=_cmd_profile)

    snapshot = subparsers.add_parser(
        "snapshot", help="analyze and record a baseline snapshot in the findings store"
    )
    snapshot.add_argument("directory")
    snapshot.add_argument("--repo", help="MiniGit repo.json for authorship + ranking")
    snapshot.add_argument("--config", nargs="*", help="enabled build macros")
    snapshot.add_argument(
        "--store", required=True, help="the SQLite findings store (created on first use)"
    )
    snapshot.add_argument(
        "--rev", help="snapshot label (default: snapshot-<n>)"
    )
    snapshot.add_argument(
        "--rules",
        metavar="PACK[,PACK...]",
        help="comma-separated rule packs to run (default: all registered)",
    )
    snapshot.set_defaults(func=_cmd_snapshot)

    gate = subparsers.add_parser(
        "gate",
        help="analyze and fail (exit 1) only on new findings vs the last snapshot",
    )
    gate.add_argument("directory")
    gate.add_argument("--repo", help="MiniGit repo.json for authorship + ranking")
    gate.add_argument("--config", nargs="*", help="enabled build macros")
    gate.add_argument("--store", required=True, help="the SQLite findings store")
    gate.add_argument(
        "--baseline-rev",
        help="gate against this snapshot instead of the latest one",
    )
    gate.add_argument(
        "--baseline",
        help="accepted-findings file (default: <dir>/.valuecheck-baseline.json)",
    )
    gate.add_argument(
        "--sarif",
        help="write the lifecycle diff as a SARIF 2.1.0 log with baselineState",
    )
    gate.add_argument(
        "--rules",
        metavar="PACK[,PACK...]",
        help="comma-separated rule packs to run (default: all registered)",
    )
    gate.set_defaults(func=_cmd_gate)

    triage = subparsers.add_parser(
        "triage", help="inspect the findings store and record accept decisions"
    )
    triage.add_argument("store", help="the SQLite findings store")
    triage.add_argument(
        "--show",
        choices=("active", "fixed", "all"),
        default="active",
        help="which stored findings to list (default: active)",
    )
    triage.add_argument(
        "--accept",
        metavar="FINGERPRINT",
        help="accept the finding with this (unique prefix of a) fingerprint",
    )
    triage.add_argument(
        "--justification",
        default="",
        help="why the accepted finding is acceptable (recorded in the baseline)",
    )
    triage.add_argument(
        "--author", default="", help="who signed off on the accept decision"
    )
    triage.add_argument(
        "--baseline",
        help="accepted-findings file (default: ./.valuecheck-baseline.json)",
    )
    triage.set_defaults(func=_cmd_triage)

    run_stats = subparsers.add_parser(
        "stats", help="summarise runs recorded with `analyze --stats-out`"
    )
    run_stats.add_argument("stats_file", help="a JSONL file of run records")
    run_stats.set_defaults(func=_cmd_run_stats)

    generate = subparsers.add_parser("generate-corpus", help="materialise a synthetic app")
    generate.add_argument("app", choices=sorted(PROFILES))
    generate.add_argument("--scale", type=float, default=0.1)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=_cmd_generate)

    stats = subparsers.add_parser(
        "corpus-stats", help="summarise a generated corpus directory"
    )
    stats.add_argument("directory", help="directory containing repo.json")
    stats.set_defaults(func=_cmd_stats)

    score = subparsers.add_parser(
        "score", help="score a report CSV against a corpus's ground truth"
    )
    score.add_argument("report", help="a detected.csv produced by `analyze --csv`")
    score.add_argument("--truth", required=True, help="ground_truth.json of the corpus")
    score.set_defaults(func=_cmd_score)

    serve = subparsers.add_parser(
        "serve", help="run the warm-state analysis service daemon"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7432, help="TCP port (0 = pick free)")
    serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve one request stream over stdin/stdout instead of TCP",
    )
    serve.add_argument(
        "--workers", type=positive_int, default=2, help="request worker threads"
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=16,
        help="bounded request queue depth (overflow → queue_full + retry_after)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=120.0,
        help="per-request deadline in seconds (queue wait + execution)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=8, help="LRU cap on warm projects"
    )
    serve.add_argument(
        "--max-session-loc",
        type=int,
        default=None,
        help="approximate memory cap: total warm LOC before LRU eviction",
    )
    serve.add_argument(
        "--executor",
        choices=EXECUTOR_KINDS,
        default="serial",
        help="engine executor used inside each request",
    )
    serve.add_argument(
        "--stats-out",
        help="append the service's lifetime metrics record to a JSONL file on exit",
    )
    serve.add_argument(
        "--prometheus",
        help="write the service's metrics in Prometheus text format on exit",
    )
    serve.add_argument(
        "--journal",
        help="mirror the lifecycle event journal to this JSONL file",
    )
    serve.add_argument(
        "--no-profiler",
        action="store_true",
        help="disable the always-on sampling profiler",
    )
    serve.add_argument(
        "--profile-interval",
        type=float,
        default=0.01,
        help="profiler sampling interval in seconds (default: 0.01)",
    )
    serve.add_argument(
        "--slo-target",
        type=float,
        default=None,
        help="override the 'requests' SLO latency target in seconds",
    )
    serve.add_argument(
        "--slo-error-budget",
        type=float,
        default=None,
        help="override the 'requests' SLO error budget fraction",
    )
    serve.set_defaults(func=_cmd_serve)

    route = subparsers.add_parser(
        "route",
        help="run the sharded front-end router over a pool of worker processes",
    )
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument("--port", type=int, default=7432, help="TCP port (0 = pick free)")
    route.add_argument(
        "--workers", type=positive_int, default=4, help="worker processes in the pool"
    )
    route.add_argument(
        "--worker-threads",
        type=positive_int,
        default=2,
        help="request threads per worker",
    )
    route.add_argument(
        "--queue-capacity", type=int, default=16, help="request queue depth per worker"
    )
    route.add_argument("--request-timeout", type=float, default=120.0)
    route.add_argument(
        "--max-sessions", type=int, default=8, help="LRU warm-project cap per worker"
    )
    route.add_argument("--max-session-loc", type=int, default=None)
    route.add_argument(
        "--executor",
        choices=EXECUTOR_KINDS,
        default="serial",
        help="engine executor inside each worker",
    )
    route.add_argument(
        "--vnodes", type=int, default=64, help="virtual nodes per ring slot"
    )
    route.add_argument(
        "--probe-interval",
        type=float,
        default=2.0,
        help="seconds between worker health probes (0 disables probing)",
    )
    route.add_argument(
        "--probe-timeout", type=float, default=5.0, help="health probe deadline"
    )
    route.add_argument(
        "--journal", help="mirror the router's event journal to this JSONL file"
    )
    route.add_argument(
        "--scrape-interval",
        type=float,
        default=2.0,
        help="seconds between per-worker metrics scrapes into the "
        "time-series ring (0 disables the scrape loop)",
    )
    route.add_argument(
        "--trace-capacity",
        type=int,
        default=256,
        help="router-side trace ring size (forward-hop spans)",
    )
    route.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable per-request router spans and span-context propagation",
    )
    route.set_defaults(func=_cmd_route)

    client = subparsers.add_parser(
        "client", help="send one request to a running analysis service"
    )
    client.add_argument(
        "type",
        choices=(
            "open_project",
            "analyze",
            "analyze_diff",
            "explain",
            "baseline",
            "diff_findings",
            "gate",
            "stats",
            "health",
            "trace",
            "events",
            "shutdown",
        ),
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7432)
    client.add_argument(
        "--params",
        help="request params as a JSON object, or @path to read them from a file",
    )
    client.add_argument(
        "--retries",
        type=int,
        default=3,
        help="how many queue_full rejections to retry (honouring retry_after)",
    )
    client.add_argument(
        "--trace-id",
        default=None,
        help="propagate this trace id; fetch the trace later with "
        "`client trace --params '{\"trace_id\": ...}'`",
    )
    client.set_defaults(func=_cmd_client)

    events = subparsers.add_parser(
        "events", help="stream a running daemon's lifecycle event journal"
    )
    events.add_argument("--host", default="127.0.0.1")
    events.add_argument("--port", type=int, default=7432)
    events.add_argument(
        "--since", type=int, default=0, help="only events with seq > N (default: 0)"
    )
    events.add_argument("--limit", type=int, default=None, help="events per poll")
    events.add_argument(
        "--kind", default=None, help="filter by kind prefix (e.g. 'session')"
    )
    events.add_argument(
        "--follow", action="store_true", help="keep polling for new events (Ctrl-C stops)"
    )
    events.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        help="seconds between polls with --follow (default: 1)",
    )
    events.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop --follow after N polls (default: until interrupted)",
    )
    events.set_defaults(func=_cmd_events)

    top = subparsers.add_parser(
        "top", help="live dashboard over a running daemon's health and stats"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7432)
    top.add_argument(
        "--interval", type=float, default=2.0, help="refresh period in seconds"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after N refreshes (default: until interrupted)",
    )
    top.set_defaults(func=_cmd_top)

    evaluate = subparsers.add_parser("evaluate", help="run the full evaluation")
    evaluate.add_argument("--scale", type=float, default=None)
    evaluate.add_argument("--seed", type=int, default=7)
    evaluate.add_argument("--out", help="directory for the result bundle")
    evaluate.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
