"""The three workloads: cold_analyze, warm_replay and routed_churn.

Each runs one closed-loop client: the next operation starts when the
previous one has returned.  Operations come from a schedule that is a pure
function of ``--seed``; a run works through it for ``--seconds`` seconds
(and at least a few operations), so a slower host runs a shorter prefix of
the same schedule.  The outcome of the i-th operation of a seed (cache
hits, decision counts, re-opens) must therefore repeat exactly; only times
vary.  Set-up runs ``SETUP_REPEATS`` times and is never part of an
operation's latency.

With a :class:`~spans.Recorder`, every other operation (every other
commit, for warm_replay) runs traced and the rest untraced, so one traced
run yields both the per-layer self times and the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans as spans_module

SETUP_REPEATS = 3

# Corpora.  mysql@0.15 is about 10k LOC in 281 modules: a cold analysis
# takes over 1 s, far above timer noise.  routed_churn needs many small
# projects instead, so that a run holds the >= 1000 requests a p99 needs.
COLD_PROFILE, COLD_SCALE = "mysql", 0.15
CHURN_PROFILE, CHURN_SCALE = "nfs-ganesha", 0.08
CHURN_PROJECTS = 12  # more than the 2 x 5 sessions the workers keep warm
CHURN_WORKERS, CHURN_MAX_SESSIONS = 2, 5
CHURN_MIX = (("analyze", 0.45), ("analyze_diff", 0.25), ("gate", 0.20), ("explain", 0.10))
CHURN_WARMUP_REQUESTS = 24

# The cold verdict's baseline snapshot: this many commits behind HEAD.
BASELINE_COMMITS_BEHIND = 40
# warm_replay opens its session this many commits behind HEAD: more than a
# run can replay on a fast host.
WARM_COMMITS_BEHIND, WARM_WARMUP_COMMITS = 300, 3

# Fewest operations a run makes even past its deadline, so that a traced
# run has traced and untraced operations of every type.
MIN_OPERATIONS = {"cold_analyze": 4, "warm_replay": 6, "routed_churn": 60}


@dataclass
class RunResult:
    """What one workload run measured."""

    headline: str  # the operation type ``p50_ms`` is taken from
    setup_seconds: list[float] = field(default_factory=list)
    # op type -> latency in seconds, None for a failed operation.
    latencies: dict[str, list[float | None]] = field(default_factory=dict)
    traced_latencies: dict[str, list[float | None]] = field(default_factory=dict)
    # Op types that time a step inside another operation, not an operation.
    substeps: frozenset[str] = frozenset()
    wall_seconds: float = 0.0  # timed wall time of the operation loop
    peak_rss_mb: float = 0.0
    # Per scheduled step, in order: what it did (must repeat exactly).
    outcomes: list = field(default_factory=list)
    # (candidates, reported) of every headline operation's report.
    decisions: list[tuple[int, int]] = field(default_factory=list)
    fingerprints: dict[str, str] = field(default_factory=dict)  # label -> digest
    reopens: int = 0
    traced_ops: int = 0
    spans: list = field(default_factory=list)
    span_counts: dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, seconds: float | None, traced: bool) -> None:
        target = self.traced_latencies if traced else self.latencies
        target.setdefault(kind, []).append(seconds)
        if traced and kind not in self.substeps:
            self.traced_ops += 1

    def operations(self, traced: bool | None = None) -> list[float | None]:
        """Latencies of every operation (substeps excluded); untraced,
        traced, or both when ``traced`` is None."""
        sources = {False: [self.latencies], True: [self.traced_latencies]}.get(
            traced, [self.latencies, self.traced_latencies]
        )
        return [
            sample
            for source in sources
            for kind, samples in source.items()
            if kind not in self.substeps
            for sample in samples
        ]

    def count(self, kind: str) -> int:
        return len(self.latencies.get(kind, ())) + len(self.traced_latencies.get(kind, ()))

    @property
    def attempted(self) -> int:
        return len(self.operations())

    @property
    def failed(self) -> int:
        return sum(sample is None for sample in self.operations())


class CheckFailed(RuntimeError):
    """The program's output was wrong: the run emits no numbers."""


def digest(items) -> str:
    return hashlib.sha256("\n".join(sorted(items)).encode()).hexdigest()[:16]


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pid_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for pid {pid}")


def _timed_setup(result: RunResult, build):
    """Run ``build`` SETUP_REPEATS times; keep the last state, release the
    others through their ``close``."""
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            state.close()
            state = None  # two set-ups never hold memory at once
            gc.collect()
        started = time.perf_counter()
        state = build()
        result.setup_seconds.append(time.perf_counter() - started)
    return state


class _Clock:
    """The run's deadline, and the traced/untraced alternation."""

    def __init__(self, seconds: int, minimum: int, recorder):
        self.started = time.perf_counter()
        self.deadline = self.started + seconds
        self.minimum = minimum
        self.recorder = recorder

    def more(self, done: int) -> bool:
        return done < self.minimum or time.perf_counter() < self.deadline

    def traced(self, step: int) -> bool:
        return self.recorder is not None and step % 2 == 0

    def op(self, traced: bool) -> "_Op":
        return _Op(self.recorder, traced)


class _Op:
    """One timed operation: the recorder on (under an ``op`` root span)
    when traced, off otherwise."""

    def __init__(self, recorder, traced: bool):
        self.recorder = recorder
        self.traced = traced

    def __enter__(self):
        if self.recorder is not None:
            self.recorder.enabled = self.traced
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.started
        if self.recorder is not None:
            self.recorder.enabled = False
            if self.traced:
                self.recorder.span(spans_module.OP, self.started, self.started + self.seconds)
        return False


# -- cold_analyze ------------------------------------------------------------


class _ColdState:
    def __init__(self, seed: int):
        from repro.core.project import Project
        from repro.core.valuecheck import ValueCheck
        from repro.corpus import generate_app
        from repro.engine import DEFAULT_CACHE
        from repro.store import FindingsStore
        from repro.store.fingerprint import project_sources

        self.app = generate_app(COLD_PROFILE, scale=COLD_SCALE, seed=seed)
        DEFAULT_CACHE.clear()
        baseline_rev = len(self.app.repo.commits) - 1 - BASELINE_COMMITS_BEHIND
        project = Project.from_repository(
            self.app.repo, rev=baseline_rev, build_config=set(self.app.build_config)
        )
        report = ValueCheck().analyze(project, rev=baseline_rev)
        self.store = FindingsStore.in_memory()
        self.store.record_snapshot(report.findings, project_sources(project), rev="baseline")

    def close(self) -> None:
        pass


def cold_verdict(state: _ColdState):
    """One CI verdict on a fresh checkout: parse the tree at HEAD with an
    empty module cache, analyse, fingerprint, diff against the baseline
    snapshot and gate.  Returns (report, fingerprint digest, gate,
    the time the analysis ended)."""
    from repro.core.project import Project
    from repro.core.valuecheck import ValueCheck
    from repro.engine import DEFAULT_CACHE
    from repro.store import evaluate_gate
    from repro.store.fingerprint import fingerprint_findings, project_sources

    DEFAULT_CACHE.clear()
    project = Project.from_repository(state.app.repo, build_config=set(state.app.build_config))
    report = ValueCheck().analyze(project)
    analyzed_at = time.perf_counter()
    sources = project_sources(project)
    fingerprints = fingerprint_findings(report.findings, sources)
    diff = state.store.diff(report.findings, sources, rev="head")
    gate = evaluate_gate(diff)
    return report, fingerprints, gate, analyzed_at


def run_cold_analyze(seed: int, seconds: int, recorder=None) -> RunResult:
    from repro.errors import ReproError

    result = RunResult(headline="verdict", substeps=frozenset({"gate"}))
    state = _timed_setup(result, lambda: _ColdState(seed))
    clock = _Clock(seconds, MIN_OPERATIONS["cold_analyze"], recorder)
    step = 0
    while clock.more(step):
        traced = clock.traced(step)
        step += 1
        try:
            with clock.op(traced) as op:
                report, fingerprints, gate, analyzed_at = cold_verdict(state)
        except ReproError as error:
            result.record("verdict", None, traced)
            result.outcomes.append(["error", type(error).__name__])
            continue
        result.record("verdict", op.seconds, traced)
        result.record("gate", op.started + op.seconds - analyzed_at, traced)
        counts = report.counts()
        result.decisions.append((counts["candidates"], counts["reported"]))
        result.outcomes.append(
            [
                report.engine_stats.cache_hits,
                report.engine_stats.cache_misses,
                counts["candidates"],
                counts["reported"],
                gate.counts(),
            ]
        )
        found = digest(f"{fp.primary}:{fp.location}" for fp in fingerprints.values())
        if result.fingerprints.setdefault("head", found) != found:
            raise CheckFailed("two cold verdicts of one tree gave different fingerprints")
    result.wall_seconds = time.perf_counter() - clock.started
    result.peak_rss_mb = self_rss_mb()
    return result


# -- warm_replay -------------------------------------------------------------

WARM_STEP = (
    ("analyze_diff", {"project_id": "warm", "commit": "next", "top": 5}),
    ("gate", {"project_id": "warm"}),
    ("explain", {"project_id": "warm"}),
)


class _WarmState:
    """An in-process AnalysisService (no sockets) with one session some
    commits behind HEAD, its baseline recorded and a few commits replayed."""

    def __init__(self, seed: int, work: Path):
        from repro.corpus import generate_app
        from repro.engine import DEFAULT_CACHE
        from repro.service import AnalysisService, ServiceConfig

        self.app = generate_app(COLD_PROFILE, scale=COLD_SCALE, seed=seed)
        DEFAULT_CACHE.clear()  # a daemon starts with an empty module cache
        self.repo_path = work / f"warm-repo-{seed}.json"
        self.app.repo.save(self.repo_path)
        self.service = AnalysisService(ServiceConfig()).start()
        self.requests = 0
        self.rev = len(self.app.repo.commits) - 1 - WARM_COMMITS_BEHIND
        self.call("open_project", {"project_id": "warm", "repo": str(self.repo_path), "rev": self.rev})
        self.call("baseline", {"project_id": "warm"})
        for _ in range(WARM_WARMUP_COMMITS):
            for kind, params in WARM_STEP:
                self.call(kind, params)
            self.rev += 1

    def submit(self, kind: str, params: dict) -> dict:
        self.requests += 1
        return self.service.submit({"id": self.requests, "type": kind, "params": params})

    def call(self, kind: str, params: dict) -> dict:
        response = self.submit(kind, params)
        if not response.get("ok"):
            raise CheckFailed(f"request {kind} failed: {response.get('error')}")
        return response["result"]

    def close(self) -> None:
        self.service.shutdown()


def run_warm_replay(seed: int, seconds: int, work: Path, recorder=None) -> RunResult:
    from repro.core.project import Project
    from repro.core.valuecheck import ValueCheck
    from repro.engine import DEFAULT_CACHE
    from repro.store import FindingsStore
    from repro.store.fingerprint import project_sources

    result = RunResult(headline="analyze_diff")
    state = _timed_setup(result, lambda: _WarmState(seed, work))
    head = len(state.app.repo.commits) - 1
    last_counts: dict = {}
    try:
        clock = _Clock(seconds, MIN_OPERATIONS["warm_replay"], recorder)
        step = 0
        while clock.more(step) and state.rev < head:
            traced = clock.traced(step)
            step += 1
            outcome = []
            for kind, params in WARM_STEP:
                with clock.op(traced) as op:
                    response = state.submit(kind, params)
                if not response.get("ok"):
                    result.record(kind, None, traced)
                    outcome.append(["error", response.get("error", {}).get("code")])
                    continue
                result.record(kind, op.seconds, traced)
                if kind == "analyze_diff":
                    reply = response["result"]
                    engine = reply["engine"] or {}
                    last_counts = reply["counts"]
                    result.decisions.append((last_counts["candidates"], last_counts["reported"]))
                    outcome += [engine.get("cache_hits", 0), engine.get("cache_misses", 0), last_counts]
            result.outcomes.append(outcome)
            state.rev += 1
        result.wall_seconds = time.perf_counter() - clock.started
        result.peak_rss_mb = self_rss_mb()
        if result.failed:
            raise CheckFailed(f"{result.failed} warm requests failed; session state is unknown")
        session = state.call("diff_findings", {"project_id": "warm"})
        session_fps = digest(row["fingerprint"] for row in session["rows"])
    finally:
        state.close()

    # A cold analysis at the revision the replay reached must agree.
    DEFAULT_CACHE.clear()
    project = Project.from_repository(state.app.repo, rev=state.rev, build_config=set(state.app.build_config))
    report = ValueCheck().analyze(project, rev=state.rev)
    cold = FindingsStore.in_memory().diff(report.findings, project_sources(project), rev="worktree")
    cold_fps = digest(row.fingerprint for row in cold.rows)
    if cold_fps != session_fps or report.counts() != last_counts:
        raise CheckFailed(
            f"warm session disagrees with a cold analysis at rev {state.rev}: "
            f"fingerprints {session_fps} vs {cold_fps}, counts {last_counts} vs {report.counts()}"
        )
    result.fingerprints[f"rev{state.rev}"] = session_fps
    return result


# -- routed_churn ------------------------------------------------------------


def _churn_sources(seed: int, index: int) -> dict[str, str]:
    from repro.corpus import generate_app

    app = generate_app(CHURN_PROFILE, scale=CHURN_SCALE, seed=seed * 1000 + index)
    snapshot = app.repo.snapshot_at(len(app.repo.commits) - 1)
    return {path: text for path, text in snapshot.items() if path.endswith(".c")}


def _churn_edit(sources: dict[str, str], variant: int) -> dict[str, str]:
    """A deterministic one-file edit: append a function with an unused
    definition."""
    path = sorted(sources)[0]
    extra = (
        f"int churn_probe_{variant}(void)\n{{\n    int unused;\n"
        f"    unused = {variant + 1};\n    return {variant};\n}}\n"
    )
    return {path: sources[path] + "\n" + extra}


def churn_schedule(seed: int):
    """Endless (request type, project index, edit variant) stream."""
    rng = random.Random(seed)
    total = sum(weight for _, weight in CHURN_MIX)
    while True:
        project = rng.randrange(CHURN_PROJECTS)
        roll = rng.random() * total
        for kind, weight in CHURN_MIX:
            roll -= weight
            if roll <= 0:
                break
        yield kind, project, rng.randrange(3)


class _ChurnState:
    """A Router over worker processes behind a TCP front end, every
    project of the pool opened once and a warm-up prefix replayed."""

    def __init__(self, seed: int):
        from repro.service import Router, RouterConfig, ServiceClient, ServiceServer, WorkerSpec

        self.projects = [_churn_sources(seed, index) for index in range(CHURN_PROJECTS)]
        self.check = _churn_sources(seed, CHURN_PROJECTS)
        self.schedule = churn_schedule(seed)
        spec = WorkerSpec(threads=2, max_sessions=CHURN_MAX_SESSIONS)
        self.router = Router(RouterConfig(workers=CHURN_WORKERS, spec=spec)).start()
        self.server = None
        self.client = None
        try:
            self.server = ServiceServer(self.router, port=0)
            self.server.serve_background()
            self.client = ServiceClient(port=self.server.address[1])
            for index, sources in enumerate(self.projects):
                self.client.request("open_project", {"project_id": f"c{index}", "sources": sources})
            for _ in range(CHURN_WARMUP_REQUESTS):
                kind, project, variant = next(self.schedule)
                self.client.request(kind, self.params(kind, project, variant))
        except BaseException:
            self.close()
            raise

    def params(self, kind: str, project: int, variant: int) -> dict:
        params: dict = {"project_id": f"c{project}"}
        if kind == "analyze_diff":
            params["changes"] = _churn_edit(self.projects[project], variant)
        if kind in ("analyze", "analyze_diff"):
            params["top"] = 5
        return params

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        self.router.shutdown()
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()


def run_routed_churn(seed: int, seconds: int, work: Path, recorder=None) -> RunResult:
    from repro.core.project import Project
    from repro.core.valuecheck import ValueCheck, ValueCheckConfig
    from repro.service import ServiceError
    from repro.store import FindingsStore
    from repro.store.fingerprint import project_sources

    result = RunResult(headline="analyze")
    spans_dir = work / "worker-spans"
    if recorder is not None:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        _worker_tracing(spans_dir, on=True)
    try:
        state = _timed_setup(result, lambda: _ChurnState(seed))
    finally:
        if recorder is not None:
            _worker_tracing(spans_dir, on=False)
    try:
        migrations = state.router.migrations
        clock = _Clock(seconds, MIN_OPERATIONS["routed_churn"], recorder)
        step = 0
        while clock.more(step):
            kind, project, variant = next(state.schedule)
            traced = clock.traced(step)
            trace_id = f"{'traced' if traced else 'plain'}-{step}"
            step += 1
            before = state.router.migrations
            reply = None
            with clock.op(traced) as op:
                try:
                    reply = state.client.request(kind, state.params(kind, project, variant), trace_id=trace_id)
                except (ServiceError, ConnectionError, OSError) as error:
                    failure = getattr(error, "code", type(error).__name__)
            reopened = state.router.migrations - before
            # A request that re-opened an evicted session is another
            # operation (open + request): it never enters its type's median.
            label = f"{kind}.reopen" if reopened else kind
            result.record(label, op.seconds if reply is not None else None, traced)
            outcome = [kind, project, reopened]
            if reply is None:
                outcome.append(["error", failure])
            elif kind in ("analyze", "analyze_diff"):
                engine = reply.get("engine") or {}
                if kind == "analyze":
                    result.decisions.append((reply["counts"]["candidates"], reply["counts"]["reported"]))
                outcome += [engine.get("cache_hits", 0), engine.get("cache_misses", 0), reply["counts"]]
            result.outcomes.append(outcome)
        result.wall_seconds = time.perf_counter() - clock.started
        result.reopens = state.router.migrations - migrations
        result.peak_rss_mb = max(_pid_rss_mb(h.pid) for h in state.router.pool.handles())
        # The check project never joins the mix: routed and in-process
        # analyses of it must agree.
        state.client.request("open_project", {"project_id": "check", "sources": state.check})
        state.client.request("analyze", {"project_id": "check"})
        routed = state.client.request("diff_findings", {"project_id": "check"})
    finally:
        state.close()
    if recorder is not None:
        result.spans, result.span_counts = _load_worker_spans(spans_dir)
    project = Project.from_sources(state.check, name="check")
    report = ValueCheck(ValueCheckConfig(use_authorship=False)).analyze(project)
    local = FindingsStore.in_memory().diff(report.findings, project_sources(project))
    routed_fps = digest(row["fingerprint"] for row in routed["rows"])
    local_fps = digest(row.fingerprint for row in local.rows)
    if routed_fps != local_fps:
        raise CheckFailed(f"check project: routed {routed_fps} vs in-process {local_fps}")
    result.fingerprints["check"] = routed_fps
    return result


SHIM = Path(__file__).resolve().parent / "shim"


def _worker_tracing(spans_dir: Path, on: bool) -> None:
    """Worker processes inherit this process's environment: with the shim
    directory on PYTHONPATH their interpreter loads its sitecustomize,
    which records layer spans of traced requests into ``spans_dir``."""
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p and p != str(SHIM)]
    if on:
        paths.insert(0, str(SHIM))
        os.environ["PERFBENCH_SPANS_DIR"] = str(spans_dir)
    else:
        os.environ.pop("PERFBENCH_SPANS_DIR", None)
    if paths:
        os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    else:
        os.environ.pop("PYTHONPATH", None)


def _load_worker_spans(spans_dir: Path) -> tuple[list, dict[str, int]]:
    spans, counts = [], {}
    files = sorted(spans_dir.glob("worker-*.json"))
    if not files:
        raise CheckFailed("traced run: no worker wrote its spans")
    for path in files:
        data = json.loads(path.read_text())
        spans.extend(spans_module.Span(*row) for row in data["spans"])
        for name, value in data["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return spans, counts
