"""The analysis service core: bounded queue, worker pool, handlers.

Transport-agnostic — the TCP and stdio frontends (``repro.service.server``)
and in-process callers (benchmarks, tests) all drive the same
:meth:`AnalysisService.submit`.  Request lifecycle::

    submit ──▶ bounded queue ──▶ worker pool ──▶ handler ──▶ response
        │ full?                      │ deadline passed?
        ▼                            ▼
    queue_full + retry_after     timeout error (work skipped/dropped)

Guarantees:

* **Explicit backpressure** — a full queue rejects immediately with
  ``retry_after``; an accepted request is always answered.
* **Per-request timeouts** — the deadline covers queue wait plus
  execution; a request whose deadline passes while queued is never
  started, one that overruns while executing has its result dropped and
  a ``timeout`` error returned (threads cannot be killed mid-handler).
* **Graceful shutdown** — new work is rejected with ``shutting_down``,
  every already-accepted request drains through the workers, then the
  pool stops.

``health`` and ``stats`` are answered inline, outside the queue: an
operator must be able to observe a saturated daemon.
"""

from __future__ import annotations

import queue as queue_module
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro import obs
from repro.core.project import Project
from repro.core.valuecheck import ValueCheckConfig
from repro.engine import DEFAULT_CACHE
from repro.errors import SourceError, VcsError
from repro.obs import (
    DEFAULT_SLOS,
    EventJournal,
    SloConfig,
    TraceRecord,
    TraceStore,
    Tracer,
    build_trackers,
)
from repro.obs.clock import monotonic
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    check_params,
    decode_request,
    encode,
    error_response,
    ok_response,
    open_recipe,
)
from repro.service.sessions import SessionManager
from repro.vcs.repository import Repository

#: Seconds a ``queue_full`` rejection asks the client to wait.
RETRY_AFTER = 0.5


@dataclass(frozen=True)
class ServiceConfig:
    """Daemon knobs: concurrency, backpressure, session caps."""

    workers: int = 2
    queue_capacity: int = 16
    request_timeout: float = 120.0
    max_sessions: int = 8
    max_session_loc: int | None = None  # approximate memory cap, in LOC
    executor: str = "serial"  # engine executor inside each request
    # Operational layer (see docs/OBSERVABILITY.md):
    journal_path: str | None = None  # optional JSONL mirror of the journal
    slos: tuple[SloConfig, ...] = DEFAULT_SLOS

    def __post_init__(self) -> None:
        # With no worker thread the daemon answers only the inline
        # control plane and every queued request times out.
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers!r}")


@dataclass
class _Pending:
    """One accepted request travelling from submitter to worker."""

    request: dict
    enqueued_at: float
    deadline: float
    # Server-assigned monotonically increasing request number and the
    # trace id (client-propagated or server-assigned) all spans of this
    # request are recorded under.
    seq: int = 0
    trace_id: str = ""
    # Cross-process span context attached by a forwarding router
    # (parent span id + the router's wall-clock accept epoch); stored
    # with the trace record so a stitcher can hang this request's spans
    # under the router's forward span.
    span_ctx: dict | None = None
    # The per-request tracer: constructed at accept time, so its epoch
    # is the moment the request entered the queue and queue wait shows
    # up on the request's own timeline.
    tracer: Tracer | None = None
    done: threading.Event = field(default_factory=threading.Event)
    response: dict | None = None
    # Set by the submitter when it gives up waiting: the worker then
    # skips (if not started) or drops the result (if mid-flight).
    abandoned: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)


class AnalysisService:
    """Long-running analysis daemon core holding warm project state."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.metrics = obs.MetricsRegistry(window=obs.DAEMON_WINDOW)
        self.journal = EventJournal(sink_path=self.config.journal_path)
        # Tail-retained: slow and errored traces are pinned in the ring.
        self.traces = TraceStore()
        self.slos = build_trackers(tuple(self.config.slos))
        self.sessions = SessionManager(
            max_sessions=self.config.max_sessions,
            max_total_loc=self.config.max_session_loc,
            metrics=self.metrics,
            journal=self.journal,
        )
        self.started_at = monotonic()
        self._queue: queue_module.Queue[_Pending | None] = queue_module.Queue(
            maxsize=self.config.queue_capacity
        )
        self._state_lock = threading.Lock()
        self._accepting = False
        self._stopped = threading.Event()
        self._inflight = 0
        self._idle = threading.Condition(self._state_lock)
        self._threads: list[threading.Thread] = []
        self._shutdown_listeners: list[Callable[[], None]] = []
        self._project_counter = 0
        self._request_seq = 0
        # Each handler sees params already checked against the protocol's
        # schema, defaults filled in.
        self._handlers: dict[str, Callable[[dict], dict]] = {
            kind: self._checked(kind, handler)
            for kind, handler in (
                ("open_project", self._handle_open_project),
                ("analyze", self._handle_analyze),
                ("analyze_diff", self._handle_analyze_diff),
                ("explain", self._handle_explain),
                ("baseline", self._handle_baseline),
                ("diff_findings", self._handle_diff_findings),
                ("gate", self._handle_gate),
            )
        }
        # Control-plane requests bypass the queue: they must work while
        # the data plane is saturated or draining.
        self._control: dict[str, Callable[[dict], dict]] = {
            "health": lambda params: self._health(),
            "stats": self._stats,
            "trace": self._trace_result,
            "events": self._events_result,
            "shutdown": self._shutdown_result,
        }

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "AnalysisService":
        with self._state_lock:
            if self._threads:
                return self
            self._accepting = True
            for index in range(self.config.workers):
                thread = threading.Thread(
                    target=self._worker_loop, name=f"svc-worker-{index}", daemon=True
                )
                thread.start()
                self._threads.append(thread)
        self.journal.emit(
            "service.start",
            workers=self.config.workers,
            queue_capacity=self.config.queue_capacity,
        )
        return self

    @property
    def stopped(self) -> bool:
        return self._stopped.is_set()

    def add_shutdown_listener(self, callback: Callable[[], None]) -> None:
        self._shutdown_listeners.append(callback)

    def shutdown(self, drain: bool = True) -> dict:
        """Stop accepting, drain accepted work, stop the workers."""
        with self._state_lock:
            already = self._stopped.is_set()
            self._accepting = False
        if not already:
            drained = 0
            if drain:
                with self._idle:
                    while self._queue.unfinished_tasks or self._inflight:
                        self._idle.wait(timeout=0.05)
                        drained += 1  # heartbeat only; loop exits when idle
            for _ in self._threads:
                self._queue.put(None)  # wake workers past the (empty) queue
            for thread in self._threads:
                thread.join(timeout=5.0)
            self._stopped.set()
            self.journal.emit(
                "service.shutdown",
                drained=bool(drain),
                uptime_seconds=round(monotonic() - self.started_at, 6),
            )
            self.journal.close()
            for callback in self._shutdown_listeners:
                callback()
        return {
            "stopped": True,
            "drained": bool(drain),
            "uptime_seconds": round(monotonic() - self.started_at, 6),
            "requests": self.request_counts(),
        }

    # -- submission ------------------------------------------------------

    def submit_line(self, line: str | bytes) -> str:
        """Wire-level entry: one request line in, one response line out."""
        try:
            request = decode_request(line)
        except ProtocolError as error:
            self.metrics.inc("service.requests", type="invalid", outcome=error.code)
            return encode(error_response(None, error.code, error.message))
        return encode(self.submit(request))

    def submit(self, request: dict, timeout: float | None = None) -> dict:
        """Process one decoded request envelope, blocking for the reply."""
        kind = request["type"]
        request_id = request.get("id")
        params = request.get("params", {})

        control = self._control.get(kind)
        if control is not None:
            try:
                return ok_response(request_id, control(check_params(kind, params)))
            except ProtocolError as error:
                return error_response(request_id, error.code, error.message)

        with self._state_lock:
            accepting = self._accepting and not self._stopped.is_set()
        if not accepting:
            self.metrics.inc("service.requests", type=kind, outcome="shutting_down")
            return error_response(
                request_id, "shutting_down", "service is draining; no new work accepted"
            )

        budget = timeout if timeout is not None else self.config.request_timeout
        now = monotonic()
        with self._state_lock:
            self._request_seq += 1
            seq = self._request_seq
        trace_id = request.get("trace_id") or f"srv-{seq}"
        pending = _Pending(
            request=request,
            enqueued_at=now,
            deadline=now + budget,
            seq=seq,
            trace_id=trace_id,
            span_ctx=request.get("span_ctx"),
            tracer=Tracer(),
        )
        try:
            self._queue.put_nowait(pending)
        except queue_module.Full:
            # Shutdown may have flipped _accepting after the check above;
            # a draining queue then looks "full" to late submitters.  A
            # retry_after hint would send the client back to a dying
            # server — tell it the truth instead.
            with self._state_lock:
                accepting = self._accepting and not self._stopped.is_set()
            if not accepting:
                self.metrics.inc(
                    "service.requests", type=kind, outcome="shutting_down"
                )
                return error_response(
                    request_id,
                    "shutting_down",
                    "service is draining; no new work accepted",
                )
            self.metrics.inc("service.requests", type=kind, outcome="rejected")
            self.metrics.inc("service.queue.rejected")
            self.journal.emit(
                "queue.full",
                request=seq,
                type=kind,
                trace_id=trace_id,
                queue_capacity=self.config.queue_capacity,
            )
            return error_response(
                request_id,
                "queue_full",
                f"request queue is full ({self.config.queue_capacity} deep); retry",
                retry_after=RETRY_AFTER,
            )
        self.metrics.inc("service.requests", type=kind, outcome="accepted")
        self.metrics.set_gauge("service.queue.depth", self._queue.qsize())
        self.journal.emit("request.start", request=seq, type=kind, trace_id=trace_id)

        if pending.done.wait(timeout=budget):
            return pending.response  # type: ignore[return-value]
        with pending.lock:
            if pending.done.is_set():  # finished in the race window
                return pending.response  # type: ignore[return-value]
            pending.abandoned = True
        self.metrics.inc("service.requests", type=kind, outcome="timed_out")
        self.journal.emit(
            "deadline.timeout",
            request=seq,
            type=kind,
            trace_id=trace_id,
            budget_seconds=round(budget, 3),
        )
        return error_response(
            request_id,
            "timeout",
            f"request exceeded its {budget:.1f}s deadline",
            trace_id=trace_id,
        )

    # -- worker pool -----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            pending = self._queue.get()
            if pending is None:
                self._queue.task_done()
                return
            try:
                self._process(pending)
            finally:
                self._queue.task_done()
                with self._idle:
                    self._idle.notify_all()

    def _process(self, pending: _Pending) -> None:
        request = pending.request
        kind = request["type"]
        request_id = request.get("id")
        started = monotonic()
        self.metrics.set_gauge("service.queue.depth", self._queue.qsize())
        self.metrics.observe(
            "service.queue.wait_seconds", started - pending.enqueued_at, type=kind
        )
        with pending.lock:
            if pending.abandoned:
                self.metrics.inc("service.requests", type=kind, outcome="expired")
                self.journal.emit(
                    "request.expired",
                    request=pending.seq,
                    type=kind,
                    trace_id=pending.trace_id,
                )
                return
            if started > pending.deadline:
                # Deadline burned entirely in the queue: answer without
                # doing the work (the submitter may still be waiting).
                pending.response = error_response(
                    request_id,
                    "timeout",
                    "deadline expired while queued",
                    trace_id=pending.trace_id,
                )
                pending.done.set()
                self.metrics.inc("service.requests", type=kind, outcome="timed_out")
                self.journal.emit(
                    "deadline.timeout",
                    request=pending.seq,
                    type=kind,
                    trace_id=pending.trace_id,
                    queued=True,
                )
                return
            with self._state_lock:
                self._inflight += 1

        # The request runs under its own telemetry: a fresh tracer whose
        # epoch is the accept time (queue wait is a span on the same
        # timeline) sharing the service-wide metrics registry.  Pushed as
        # ambient so engine/store spans deep in the pipeline join this
        # request's trace instead of vanishing.
        tracer = pending.tracer or Tracer()
        tracer.add_span(
            "queue.wait", 0.0, tracer.elapsed(), type=kind, trace_id=pending.trace_id
        )
        request_telemetry = obs.Telemetry(tracer=tracer, metrics=self.metrics)
        try:
            with obs.use(request_telemetry):
                with tracer.span(
                    "service.request",
                    type=kind,
                    id=str(request_id),
                    trace_id=pending.trace_id,
                ):
                    handler = self._handlers[kind]
                    try:
                        response = ok_response(
                            request_id,
                            handler(request.get("params", {})),
                            trace_id=pending.trace_id,
                        )
                        outcome = "ok"
                    except ProtocolError as error:
                        response = error_response(
                            request_id,
                            error.code,
                            error.message,
                            error.retry_after,
                            trace_id=pending.trace_id,
                        )
                        outcome = error.code
                    except Exception as error:  # noqa: BLE001 — daemon must not die
                        response = error_response(
                            request_id,
                            "internal",
                            f"{type(error).__name__}: {error}",
                            trace_id=pending.trace_id,
                        )
                        outcome = "internal"
        finally:
            with self._state_lock:
                self._inflight -= 1
        seconds = monotonic() - started
        self.metrics.observe("service.request_seconds", seconds, type=kind)
        self.metrics.inc("service.requests", type=kind, outcome=outcome)
        self.traces.put(
            TraceRecord(
                request_id=pending.seq,
                trace_id=pending.trace_id,
                kind=kind,
                ok=outcome == "ok",
                seconds=seconds,
                spans=tuple(tracer.spans()),
                epoch_ts=tracer.wall_epoch,
                span_ctx=pending.span_ctx,
            )
        )
        for tracker in self.slos:
            tracker.record(kind, seconds, ok=outcome == "ok")
        self.journal.emit(
            "request.end",
            request=pending.seq,
            type=kind,
            trace_id=pending.trace_id,
            outcome=outcome,
            seconds=round(seconds, 6),
        )
        with pending.lock:
            if pending.abandoned:
                self.metrics.inc("service.requests", type=kind, outcome="dropped")
                return
            pending.response = response
            pending.done.set()

    # -- handlers --------------------------------------------------------

    @staticmethod
    def _checked(kind: str, handler: Callable[[dict], dict]) -> Callable[[dict], dict]:
        return lambda params: handler(check_params(kind, params))

    def _session_config(self, params: dict) -> ValueCheckConfig:
        """The session's analysis config from the wire ``options``.  The
        rule selection (top-level ``rules`` or ``options.rules``; a list
        of names or a comma-separated string) must name registered packs:
        the invalid_params error lists them, so clients learn the
        vocabulary from the failure."""
        options = params.get("options", {})
        rules = params.get("rules", options.get("rules"))
        if isinstance(rules, str):
            rules = [name.strip() for name in rules.split(",") if name.strip()]
        if rules is not None:
            # Imported lazily: repro.rules pulls in repro.core.
            from repro.rules.registry import UnknownRuleError, normalize_rules

            try:
                rules = normalize_rules(rules)
            except UnknownRuleError as exc:
                raise ProtocolError("invalid_params", str(exc)) from exc
        return ValueCheckConfig(
            use_authorship=options.get("use_authorship", True),
            executor=options.get("executor", self.config.executor),
            workers=options.get("workers"),
            module_cache=options.get("module_cache", True),
            rules=rules,
        )

    def _handle_open_project(self, params: dict) -> dict:
        sources = params.get("sources")
        root = params.get("root")
        repo = None
        if params.get("repo"):
            repo_path = Path(params["repo"])
            if not repo_path.exists():
                raise ProtocolError("invalid_params", f"repo file {repo_path} not found")
            try:
                repo = Repository.load(repo_path)
            except VcsError as error:
                raise ProtocolError("invalid_params", str(error)) from error
        from_repo = repo is not None and "rev" in params
        if root is not None:
            root_path = Path(root)
            if not root_path.is_dir():
                raise ProtocolError("invalid_params", f"{root_path} is not a directory")
            sources = {
                str(path.relative_to(root_path)): path.read_text()
                for path in sorted(root_path.rglob("*.c"))
            }
        if not from_repo and not sources:
            raise ProtocolError("invalid_params", "no .c sources to open")

        project_id = params.get("project_id") or self._mint_project_id()
        build_config = set(params.get("build_config", ()))
        config = self._session_config(params)
        if repo is None:
            config = replace(config, use_authorship=False)
        # A router migrating the session to another worker replays
        # exactly this recipe as a fresh open_project.
        open_params = open_recipe(params, project_id)

        warm_started = monotonic()
        if from_repo:
            try:
                project = Project.from_repository(
                    repo, rev=params["rev"], name=project_id, build_config=build_config
                )
            except VcsError as error:
                raise ProtocolError("invalid_params", str(error)) from error
        else:
            project = Project.from_sources(
                sources, name=project_id, repo=repo, build_config=build_config
            )
        try:
            # Opening analyses the tree: the first module-cache miss that
            # does not parse fails here, before any session is registered.
            session, evicted = self.sessions.open(
                project_id,
                project,
                config,
                rev=params["rev"] if from_repo else None,
                open_params=open_params,
            )
        except SourceError as error:
            raise ProtocolError("invalid_params", str(error)) from error
        return {
            "project_id": project_id,
            "modules": len(project.sources),
            "loc": project.loc(),
            "has_repo": repo is not None,
            "rev": session.analyzer.current_rev if repo is not None else None,
            "warm_seconds": round(monotonic() - warm_started, 6),
            "evicted": evicted,
        }

    def _mint_project_id(self) -> str:
        """The next ``p<n>`` that names no open session."""
        open_ids = set(self.sessions.ids())
        with self._state_lock:
            while True:
                self._project_counter += 1
                project_id = f"p{self._project_counter}"
                if project_id not in open_ids:
                    return project_id

    def _session(self, params: dict):
        project_id = params["project_id"]
        with obs.span("session.lookup", project_id=project_id):
            session = self.sessions.get(project_id)
        if session is None:
            raise ProtocolError(
                "unknown_project",
                f"project {project_id!r} is not open (evicted or never opened); "
                "send open_project again",
            )
        return session

    @staticmethod
    def _with_findings(result: dict, report, params: dict) -> dict:
        """``result`` plus the report's top findings (and SARIF if asked)."""
        result["findings"] = [f.to_row() for f in report.reported()[: params["top"]]]
        if params["sarif"]:
            result["sarif"] = report.to_sarif(include_pruned=params["include_pruned"])
        return result

    def _handle_analyze(self, params: dict) -> dict:
        """The session's current report; ``seconds`` and ``engine``
        describe the run (full analysis or warm step) that built it."""
        session = self._session(params)
        report = session.report()
        result = {
            "project_id": session.project_id,
            "counts": report.counts(),
            "prune_stats": dict(report.prune_stats),
            "seconds": round(report.seconds, 6),
            "converged": report.converged,
            "engine": report.engine_stats.as_dict() if report.engine_stats else None,
        }
        return self._with_findings(result, report, params)

    def _handle_analyze_diff(self, params: dict) -> dict:
        session = self._session(params)
        try:
            incremental, merged = session.analyze_diff(
                changes=params.get("changes"), commit=params.get("commit")
            )
        except (ValueError, SourceError, VcsError) as error:
            # A change that does not parse, or a commit that does not
            # resolve, is rejected before it touches the session's warm
            # state.
            raise ProtocolError("invalid_params", str(error)) from error
        result = {
            "project_id": session.project_id,
            "label": incremental.commit_id,
            "changed_files": incremental.changed_files,
            "changed_functions": incremental.changed_functions,
            "analyzed_functions": [list(pair) for pair in incremental.analyzed_functions],
            "deleted_files": incremental.deleted_files,
            "seconds": round(incremental.seconds, 6),
            "engine": (
                incremental.engine_stats.as_dict() if incremental.engine_stats else None
            ),
            "counts": merged.counts(),
            "prune_stats": dict(merged.prune_stats),
            "converged": merged.converged,
        }
        return self._with_findings(result, merged, params)

    def _handle_baseline(self, params: dict) -> dict:
        session = self._session(params)
        result = session.snapshot_baseline(params.get("rev"))
        self.journal.emit(
            "snapshot.recorded",
            project_id=session.project_id,
            rev=result["rev"],
            counts=result["counts"],
        )
        return result

    def _handle_diff_findings(self, params: dict) -> dict:
        session = self._session(params)
        try:
            return session.diff_findings(params.get("baseline_rev"))
        except ValueError as error:
            raise ProtocolError("invalid_params", str(error)) from error

    def _handle_gate(self, params: dict) -> dict:
        session = self._session(params)
        try:
            result = session.gate(params.get("baseline_rev"), params.get("baseline_entries"))
        except ValueError as error:
            raise ProtocolError("invalid_params", str(error)) from error
        self.journal.emit(
            "gate.verdict",
            project_id=session.project_id,
            ok=result.get("ok"),
            counts=result.get("counts"),
        )
        return result

    def _handle_explain(self, params: dict) -> dict:
        return self._session(params).explain(params.get("finding"))

    # -- control plane ---------------------------------------------------

    def request_counts(self) -> dict[str, float]:
        return self.metrics.counters_by_name("service.requests")

    def _trace_result(self, params: dict) -> dict:
        """The ``trace`` request: a completed request's spans by server
        request number or (client-propagated) trace id."""
        request_seq = params.get("request_id")
        trace_id = params.get("trace_id")
        records: list[TraceRecord]
        if request_seq is not None:
            record = self.traces.get(request_seq)
            records = [record] if record is not None else []
            wanted = f"request {request_seq}"
        else:
            records = self.traces.records_by_trace_id(trace_id)
            record = records[-1] if records else None
            wanted = f"trace {trace_id!r}"
        if record is None:
            raise ProtocolError(
                "unknown_trace",
                f"{wanted} is not in the trace store "
                f"(still running, never traced, or evicted from the "
                f"{self.traces.capacity}-entry ring)",
            )
        result = record.as_dict()
        if params.get("all"):
            # Every retained record under the trace id, oldest first — a
            # stitching router wants the full set (a migration replay and
            # the forwarded request share one trace id).
            result["records"] = [row.as_dict() for row in records]
        if params.get("chrome"):
            result["chrome"] = self.traces.to_chrome(
                records if params.get("all") else [record]
            )
        return result

    def _events_result(self, params: dict) -> dict:
        """The ``events`` request: journal entries after a cursor."""
        rows = self.journal.events(
            since=params["since"], limit=params.get("limit"), kind=params.get("kind")
        )
        return {
            "events": [event.as_dict() for event in rows],
            "journal": self.journal.stats(),
        }

    def _shutdown_result(self, params: dict) -> dict:
        summary = self.shutdown(drain=params["drain"])
        self.metrics.inc("service.requests", type="shutdown", outcome="ok")
        return summary

    def _health(self) -> dict:
        with self._state_lock:
            accepting = self._accepting and not self._stopped.is_set()
            inflight = self._inflight
        slos = [tracker.status() for tracker in self.slos]
        breached = [status["name"] for status in slos if status["status"] == "breached"]
        if not accepting:
            status = "draining"
        elif breached:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": round(monotonic() - self.started_at, 6),
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.config.queue_capacity,
            "inflight": inflight,
            "workers": self.config.workers,
            "sessions": len(self.sessions),
            "slos": slos,
            "breached_slos": breached,
            "journal": self.journal.stats(),
            "traces": self.traces.stats(),
        }

    def _stats(self, params: dict) -> dict:
        cache = DEFAULT_CACHE.stats()
        result = {
            "health": self._health(),
            "sessions": self.sessions.stats(),
            "engine_cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "entries": cache.entries,
                "hit_rate": round(cache.hit_rate, 4),
            },
            "metrics": obs.summarize_snapshot(self.metrics.snapshot()),
            # Where the time went: self seconds per span name over the
            # retained request traces, largest first.
            "layers": {
                name: round(seconds, 6)
                for name, seconds in sorted(
                    self.traces.self_times().items(), key=lambda item: -item[1]
                )
            },
        }
        if params.get("raw_metrics"):
            # The un-summarized registry snapshot: what a router needs to
            # fold per-worker metrics into one deterministic view with
            # MetricsRegistry.merged (histogram values, not percentiles).
            result["metrics_snapshot"] = self.metrics.snapshot()
        return result

    # -- sinks -----------------------------------------------------------

    def stats_record(self) -> dict:
        """A JSONL record for ``--stats-out`` (``valuecheck stats`` shows
        the service section alongside per-run records)."""
        return {
            "schema": obs.METRICS_SCHEMA_VERSION,
            "project": "<service>",
            "seconds": round(monotonic() - self.started_at, 6),
            "service": {
                "requests": self.request_counts(),
                "sessions": self.sessions.stats(),
                "latency": obs.summarize_snapshot(self.metrics.snapshot())[
                    "histograms"
                ],
            },
        }
