"""The front-end router: one address, N worker processes, shared nothing.

The router speaks the exact same line-delimited JSON protocol as a
single ``valuecheck serve`` daemon — :class:`~repro.service.client.ServiceClient`
works against it unchanged — but instead of analysing anything itself
it consistent-hashes ``project_id`` across a :class:`~repro.service.pool.WorkerPool`
and forwards each request to the worker owning that shard.  Every
worker is a full analysis service with its own sessions and engine
cache, so the fleet's warm capacity is the *sum* of the workers', and a
crashed worker takes down only its shard's warm state, not the service.

Routing rules:

* **Data plane** (``open_project``, ``analyze``, ``analyze_diff``,
  ``explain``, ``baseline``, ``diff_findings``, ``gate``) — hash the
  ``project_id``, forward the envelope (the worker echoes the client's
  ``id``), relay the response line back.  ``trace_id`` propagates
  end-to-end: the router assigns ``rtr-<n>`` when the client sent none.
  Each forwarded request runs under the router's own per-request tracer
  — a ``router.request`` root span with ``router.forward`` /
  ``router.migrate`` children — and the router attaches ``span_ctx``
  (parent span id + its wall-clock accept epoch) to the envelope, so
  the worker's trace record can be stitched under the forward hop.
* **Control plane** (``health``, ``stats``, ``events``, ``shutdown``)
  — answered by the router itself.  ``health``/``stats`` fan out to the
  live workers and aggregate: per-worker metric registries are folded
  with :meth:`MetricsRegistry.merged` into one deterministic view, both
  carry a ``shard_map`` block, ``health`` adds router-level SLOs over
  forwarded requests with per-worker burn rates, and ``stats`` adds the
  scrape loop's time-series view (per-shard request rates and deltas).
  ``events`` is a **stable merge** of the router's journal with every
  live worker's journal — ordered on ``(timestamp, slot, seq)``, with
  per-source cursors (``worker-<slot>.g<generation>``) so paging stays
  gap-free across worker respawns.  ``trace`` collects every fragment
  of the trace — the router's own record plus hits from *all* live
  workers — and returns one stitched cross-process timeline
  (:mod:`repro.obs.stitch`).

**Migration.**  The router remembers every successful ``open_project``'s
serialized recipe (``ProjectSession.open_params``).  When a shard's
owner changes — its worker died and the ring routed around it, or a
respawn brought a fresh (empty) generation up — the router transparently
replays the recipe on the new owner before forwarding, emits a
``session.migrated`` journal event, and carries on.  The replay carries
the triggering request's trace id, so a migrated request's stitched
trace shows the replay hop too.  Analysis state is deterministic, so
findings from a re-opened session are fingerprint-identical to the
originals; in-session diff overlays (``analyze_diff``) reset to the
recipe's base state, same as an LRU eviction.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from dataclasses import dataclass, field

from repro.obs import (
    DEFAULT_SLOS,
    EventJournal,
    MetricsHistory,
    MetricsRegistry,
    SloConfig,
    TraceRecord,
    TraceStore,
    Tracer,
    build_trackers,
    make_part,
    stitch,
)
from repro.obs.clock import monotonic
from repro.service.pool import WorkerHandle, WorkerPool, WorkerSpec
from repro.service.protocol import (
    MAX_REQUEST_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_request,
    encode,
    error_response,
    ok_response,
)

#: Request types the router forwards to a shard owner (all carry — or,
#: for open_project, establish — a ``project_id``).
DATA_PLANE = (
    "open_project",
    "analyze",
    "analyze_diff",
    "explain",
    "baseline",
    "diff_findings",
    "gate",
)


@dataclass(frozen=True)
class RouterConfig:
    """Router knobs: pool size, worker shape, probing, forwarding,
    and the cluster observability plane (tracing, scraping, SLOs)."""

    workers: int = 4
    spec: WorkerSpec = field(default_factory=WorkerSpec)
    vnodes: int = 64
    probe_interval: float = 2.0
    probe_timeout: float = 5.0
    probe_failures: int = 2
    forward_timeout: float = 300.0  # socket deadline per forwarded request
    max_request_bytes: int = MAX_REQUEST_BYTES
    journal_capacity: int = 2048
    journal_path: str | None = None
    # Cluster observability plane (see docs/OBSERVABILITY.md):
    telemetry: bool = True  # per-request router spans + span_ctx propagation
    trace_capacity: int = 256  # router-side trace ring
    trace_pin_slow_seconds: float | None = 5.0  # tail-based retention
    scrape_interval: float = 2.0  # metrics scrape loop; <= 0 disables
    history_capacity: int = 240  # time-series samples retained per source
    slos: tuple[SloConfig, ...] = DEFAULT_SLOS  # over forwarded requests

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers!r}")
        if self.spec.threads < 1:
            raise ValueError(
                f"worker threads must be at least 1, got {self.spec.threads!r}"
            )


@dataclass
class _Placement:
    """Where one project's session lives and how to recreate it."""

    open_params: dict
    slot: int
    generation: int
    migrations: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class _WorkerConn:
    """One blocking line-protocol connection to one worker process."""

    def __init__(self, handle: WorkerHandle, timeout: float):
        self.slot = handle.slot
        self.generation = handle.generation
        self._sock = socket.create_connection(
            (handle.host, handle.port), timeout=timeout
        )
        self._reader = self._sock.makefile("r", encoding="utf-8")

    def roundtrip(self, envelope: dict) -> dict:
        """Forward one envelope, return the worker's response dict."""
        self._sock.sendall(encode(envelope).encode())
        line = self._reader.readline()
        if not line:
            raise ConnectionError("worker closed the connection")
        return json.loads(line)

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()


class Router:
    """Protocol-compatible front end multiplexing a worker pool.

    Presents the same surface :class:`~repro.service.server.ServiceServer`
    expects of a service core (``config.max_request_bytes``,
    ``submit_line``, ``stopped``, ``add_shutdown_listener``), so the
    existing TCP frontend hosts a router exactly as it hosts a single
    service.
    """

    def __init__(self, config: RouterConfig | None = None):
        self.config = config or RouterConfig()
        self.journal = EventJournal(
            capacity=self.config.journal_capacity,
            sink_path=self.config.journal_path,
        )
        self.metrics = MetricsRegistry()
        self.pool = WorkerPool(
            count=self.config.workers,
            spec=self.config.spec,
            vnodes=self.config.vnodes,
            probe_interval=self.config.probe_interval,
            probe_timeout=self.config.probe_timeout,
            probe_failures=self.config.probe_failures,
            journal=self.journal,
            metrics=self.metrics,
        )
        self.started_at = monotonic()
        # Router-side observability: the forward hop's own trace ring
        # (tail-retained like the workers'), router-level SLO trackers
        # over forwarded requests plus per-slot trackers for burn-rate
        # attribution, and the scrape loop's metrics time series.
        self.traces = TraceStore(
            capacity=self.config.trace_capacity,
            pin_slow_seconds=self.config.trace_pin_slow_seconds,
            pin_errors=True,
        )
        self.slos = build_trackers(tuple(self.config.slos))
        self._slot_slos: dict[int, tuple] = {}
        self._slo_lock = threading.Lock()
        self.history = MetricsHistory(capacity=self.config.history_capacity)
        self._placements: dict[str, _Placement] = {}
        self._placements_lock = threading.Lock()
        self._local = threading.local()
        self._state_lock = threading.Lock()
        self._accepting = False
        self._stopped = threading.Event()
        self._shutdown_listeners: list = []
        self._trace_seq = 0
        self._request_seq = 0
        self._scrape_thread: threading.Thread | None = None
        self.migrations = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "Router":
        self.pool.start()
        with self._state_lock:
            self._accepting = True
        if self.config.scrape_interval > 0:
            self._scrape_thread = threading.Thread(
                target=self._scrape_loop, name="router-scrape", daemon=True
            )
            self._scrape_thread.start()
        self.journal.emit(
            "router.start",
            workers=self.config.workers,
            vnodes=self.config.vnodes,
            probe_interval=self.config.probe_interval,
            scrape_interval=self.config.scrape_interval,
            telemetry=self.config.telemetry,
        )
        return self

    @property
    def stopped(self) -> bool:
        return self._stopped.is_set()

    def add_shutdown_listener(self, callback) -> None:
        self._shutdown_listeners.append(callback)

    def shutdown(self, drain: bool = True) -> dict:
        """Stop accepting, SIGTERM the workers (they drain), stop."""
        with self._state_lock:
            already = self._stopped.is_set()
            self._accepting = False
        if not already:
            self.pool.stop()
            self._stopped.set()
            if self._scrape_thread is not None:
                self._scrape_thread.join(timeout=5.0)
            self.journal.emit(
                "router.shutdown",
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
            "workers": self.config.workers,
            "migrations": self.migrations,
            "respawns": self.pool.respawns,
        }

    # -- submission ------------------------------------------------------

    def submit_line(self, line: str | bytes) -> str:
        try:
            request = decode_request(line, max_bytes=self.config.max_request_bytes)
        except ProtocolError as error:
            self.metrics.inc("router.requests", type="invalid", outcome=error.code)
            return encode(error_response(None, error.code, error.message))
        return encode(self.submit(request))

    def submit(self, request: dict) -> dict:
        kind = request["type"]
        request_id = request.get("id")
        if kind == "health":
            return ok_response(request_id, self._health())
        if kind == "stats":
            return ok_response(request_id, self._stats(request.get("params", {})))
        if kind == "events":
            return self._events(request)
        if kind == "shutdown":
            params = request.get("params", {})
            summary = self.shutdown(drain=params.get("drain", True))
            self.metrics.inc("router.requests", type=kind, outcome="ok")
            return ok_response(request_id, summary)
        if kind == "trace":
            return self._stitched_trace(request)

        with self._state_lock:
            accepting = self._accepting and not self._stopped.is_set()
        if not accepting:
            self.metrics.inc("router.requests", type=kind, outcome="shutting_down")
            return error_response(
                request_id, "shutting_down", "router is draining; no new work accepted"
            )
        return self._route(request)

    # -- data plane ------------------------------------------------------

    def _route(self, request: dict) -> dict:
        kind = request["type"]
        request_id = request.get("id")
        params = request.get("params", {})
        project_id = params.get("project_id")
        if kind != "open_project" and not isinstance(project_id, str):
            self.metrics.inc("router.requests", type=kind, outcome="invalid_params")
            return error_response(
                request_id, "invalid_params", "'project_id' must be a string"
            )
        with self._state_lock:
            self._request_seq += 1
            seq = self._request_seq
            if "trace_id" not in request:
                self._trace_seq += 1
                request = dict(request, trace_id=f"rtr-{self._trace_seq}")
        trace_id = request["trace_id"]

        # The forward hop runs under the router's own per-request tracer;
        # its record lands in the router's trace ring under the same
        # trace id the worker records under, so a later ``trace`` request
        # stitches both processes onto one timeline.
        tracer = Tracer(enabled=self.config.telemetry)
        started = monotonic()
        served: list[WorkerHandle] = []
        with tracer.span(
            "router.request", type=kind, trace_id=trace_id, id=str(request_id)
        ):
            response = self._route_attempts(request, tracer, trace_id, served)
        seconds = monotonic() - started
        ok = bool(response.get("ok"))
        self.metrics.observe("router.request_seconds", seconds, type=kind)
        if tracer.enabled:
            self.traces.put(
                TraceRecord(
                    request_id=seq,
                    trace_id=trace_id,
                    kind=kind,
                    ok=ok,
                    seconds=seconds,
                    spans=tuple(tracer.spans()),
                    epoch_ts=tracer.wall_epoch,
                )
            )
        for tracker in self.slos:
            tracker.record(kind, seconds, ok=ok)
        if served:
            for tracker in self._slot_trackers(served[-1].slot):
                tracker.record(kind, seconds, ok=ok)
        return response

    def _route_attempts(
        self,
        request: dict,
        tracer: Tracer,
        trace_id: str,
        served: list[WorkerHandle],
    ) -> dict:
        kind = request["type"]
        request_id = request.get("id")
        params = request.get("params", {})
        project_id = params.get("project_id")
        last_error: dict | None = None
        for attempt in range(3):
            try:
                handle = self._owner(kind, project_id)
            except LookupError:
                break  # no live workers at all right now
            placement = self._placement_for(project_id)
            if placement is not None and (
                (placement.slot, placement.generation)
                != (handle.slot, handle.generation)
            ):
                if not self._migrate(
                    project_id, placement, handle, tracer=tracer, trace_id=trace_id
                ):
                    last_error = None
                    continue  # owner changed under us; re-resolve
            try:
                response = self._forward_traced(
                    handle, request, tracer, attempt=attempt
                )
            except (OSError, ValueError):
                self.pool.report_failure(handle.slot, handle.generation)
                self.metrics.inc("router.forward.errors", slot=handle.slot)
                continue
            handle.requests_forwarded += 1
            if kind == "open_project" and response.get("ok"):
                self._record_open(params, response["result"], handle)
            if (
                not response.get("ok")
                and response.get("error", {}).get("code") == "unknown_project"
                and placement is not None
            ):
                # The worker lost the session (LRU eviction or a respawn
                # the ring didn't move) — replay the recipe and retry.
                if self._migrate(
                    project_id,
                    placement,
                    handle,
                    reason="evicted",
                    tracer=tracer,
                    trace_id=trace_id,
                ):
                    try:
                        response = self._forward_traced(
                            handle, request, tracer, attempt=attempt
                        )
                    except (OSError, ValueError):
                        self.pool.report_failure(handle.slot, handle.generation)
                        continue
            outcome = "ok" if response.get("ok") else response.get("error", {}).get(
                "code", "error"
            )
            self.metrics.inc("router.requests", type=kind, outcome=outcome)
            self.metrics.inc("router.forwarded", slot=handle.slot)
            served.append(handle)
            return response
        self.metrics.inc("router.requests", type=kind, outcome="worker_unavailable")
        if last_error is not None:  # pragma: no cover - defensive
            return last_error
        return error_response(
            request_id,
            "worker_unavailable",
            "no live worker can serve this shard right now; retry",
            retry_after=max(self.config.probe_interval, 0.5),
            trace_id=trace_id,
        )

    def _forward_traced(
        self, handle: WorkerHandle, request: dict, tracer: Tracer, attempt: int
    ) -> dict:
        """One forward hop under a ``router.forward`` span, with the
        span context propagated in the worker envelope."""
        with tracer.span(
            "router.forward",
            slot=handle.slot,
            generation=handle.generation,
            attempt=attempt,
        ) as span:
            envelope = request
            if span is not None:
                envelope = dict(request, span_ctx=self._span_ctx(tracer, span))
            return self._forward(handle, envelope)

    def _span_ctx(self, tracer: Tracer, span) -> dict:
        return {
            "parent_span": span.span_id,
            "root_ts": round(tracer.wall_epoch, 6),
            "origin": "router",
        }

    def _slot_trackers(self, slot: int) -> tuple:
        with self._slo_lock:
            trackers = self._slot_slos.get(slot)
            if trackers is None:
                trackers = self._slot_slos[slot] = tuple(
                    build_trackers(tuple(self.config.slos))
                )
            return trackers

    def _owner(self, kind: str, project_id: str | None) -> WorkerHandle:
        if project_id is None:
            # open_project without an explicit id: any worker may mint
            # one; spread these round-robin-ish by hashing the trace seq.
            with self._state_lock:
                key = f"anon-{self._trace_seq}"
            return self.pool.owner(key)
        return self.pool.owner(project_id)

    def _forward(self, handle: WorkerHandle, request: dict) -> dict:
        conn = self._connection(handle)
        try:
            return conn.roundtrip(request)
        except (OSError, ValueError):
            self._drop_connection(handle)
            raise

    def _connection(self, handle: WorkerHandle) -> _WorkerConn:
        cache = getattr(self._local, "conns", None)
        if cache is None:
            cache = self._local.conns = {}
        key = (handle.slot, handle.generation)
        conn = cache.get(key)
        if conn is None:
            # A new generation in this slot obsoletes the old connection.
            stale = [k for k in cache if k[0] == handle.slot and k != key]
            for old in stale:
                try:
                    cache.pop(old).close()
                except OSError:  # pragma: no cover
                    pass
            conn = cache[key] = _WorkerConn(handle, self.config.forward_timeout)
        return conn

    def _drop_connection(self, handle: WorkerHandle) -> None:
        cache = getattr(self._local, "conns", None)
        if cache is None:
            return
        conn = cache.pop((handle.slot, handle.generation), None)
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    # -- migration -------------------------------------------------------

    def _placement_for(self, project_id: str | None) -> _Placement | None:
        if project_id is None:
            return None
        with self._placements_lock:
            return self._placements.get(project_id)

    def _record_open(self, params: dict, result: dict, handle: WorkerHandle) -> None:
        project_id = result.get("project_id")
        if not isinstance(project_id, str):  # pragma: no cover - protocol guard
            return
        open_params = {
            key: params[key]
            for key in ("sources", "root", "repo", "rev", "build_config", "options", "rules")
            if key in params
        }
        open_params["project_id"] = project_id
        with self._placements_lock:
            existing = self._placements.get(project_id)
            if existing is not None:
                existing.open_params = open_params
                existing.slot = handle.slot
                existing.generation = handle.generation
            else:
                self._placements[project_id] = _Placement(
                    open_params=open_params,
                    slot=handle.slot,
                    generation=handle.generation,
                )

    def _migrate(
        self,
        project_id: str | None,
        placement: _Placement,
        handle: WorkerHandle,
        reason: str = "reassigned",
        tracer: Tracer | None = None,
        trace_id: str | None = None,
    ) -> bool:
        """Replay the open recipe on ``handle``; True when the session is
        (now) live there.  The replay carries the triggering request's
        trace id (and span context), so the migrated request's stitched
        trace includes the replay hop on the new owner."""
        with placement.lock:
            if (placement.slot, placement.generation) == (
                handle.slot,
                handle.generation,
            ) and reason != "evicted":
                return True  # another thread already migrated it
            replay = {
                "id": None,
                "type": "open_project",
                "params": placement.open_params,
            }
            if trace_id is not None:
                replay["trace_id"] = trace_id
            span_cm = (
                tracer.span(
                    "router.migrate",
                    slot=handle.slot,
                    generation=handle.generation,
                    reason=reason,
                    project_id=str(project_id),
                )
                if tracer is not None
                else _NULL_SPAN_CM
            )
            with span_cm as span:
                if span is not None and tracer is not None:
                    replay["span_ctx"] = self._span_ctx(tracer, span)
                try:
                    response = self._forward(handle, replay)
                except (OSError, ValueError):
                    self.pool.report_failure(handle.slot, handle.generation)
                    return False
            if not response.get("ok"):
                return False
            from_slot, from_generation = placement.slot, placement.generation
            placement.slot = handle.slot
            placement.generation = handle.generation
            placement.migrations += 1
            self.migrations += 1
            self.metrics.inc("router.migrations", reason=reason)
            self.journal.emit(
                "session.migrated",
                project_id=project_id,
                from_slot=from_slot,
                from_generation=from_generation,
                to_slot=handle.slot,
                to_generation=handle.generation,
                reason=reason,
            )
            return True

    # -- scrape loop ------------------------------------------------------

    def _scrape_loop(self) -> None:
        while not self._stopped.wait(self.config.scrape_interval):
            try:
                self.scrape_once()
            except Exception:  # noqa: BLE001 — the scraper must not die
                self.metrics.inc("router.scrape.errors")

    def scrape_once(self) -> int:
        """Sample every live worker's metrics into the time-series ring;
        returns the number of sources sampled.  Runs on the scrape
        thread, but callable inline (tests, `stats {scrape: true}`)."""
        sampled = 0
        for handle in self.pool.handles():
            if not handle.alive:
                continue
            response = self._worker_request(handle, "stats", {"raw_metrics": True})
            if response is None or not response.get("ok"):
                continue
            result = response["result"]
            snapshot = result.get("metrics_snapshot") or {}
            health = result.get("health") or {}
            gauges = dict(snapshot.get("gauges", {}))
            gauges["worker.sessions"] = float(health.get("sessions", 0) or 0)
            gauges["worker.queue_depth"] = float(health.get("queue_depth", 0) or 0)
            self.history.record(
                f"worker-{handle.slot}", snapshot.get("counters", {}), gauges
            )
            sampled += 1
        own = self.metrics.snapshot()
        self.history.record("router", own.get("counters", {}), own.get("gauges", {}))
        self.metrics.inc("router.scrapes")
        return sampled

    # -- control plane ---------------------------------------------------

    def _worker_request(
        self, handle: WorkerHandle, kind: str, params: dict | None = None
    ) -> dict | None:
        """One control-plane round trip; None when the worker is unreachable."""
        envelope = {"id": None, "type": kind, "params": params or {}}
        try:
            response = self._forward(handle, envelope)
        except (OSError, ValueError):
            self.pool.report_failure(handle.slot, handle.generation)
            return None
        return response

    def _health(self) -> dict:
        with self._state_lock:
            accepting = self._accepting and not self._stopped.is_set()
        workers = []
        alive = 0
        for handle in self.pool.handles():
            entry = dict(handle.as_dict())
            if handle.alive:
                response = self._worker_request(handle, "health")
                if response is not None and response.get("ok"):
                    alive += 1
                    result = response["result"]
                    entry["status"] = result["status"]
                    entry["sessions"] = result["sessions"]
                    entry["queue_depth"] = result["queue_depth"]
                else:
                    entry["status"] = "unreachable"
            else:
                entry["status"] = "dead"
            # Burn rate of this shard's forwarded requests against the
            # router-level SLOs (the worst tracker names the pressure).
            trackers = self._slot_trackers(handle.slot)
            statuses = [tracker.status() for tracker in trackers]
            entry["slos"] = statuses
            entry["burn_rate"] = max(
                (status["burn_rate"] for status in statuses), default=0.0
            )
            workers.append(entry)
        slos = [tracker.status() for tracker in self.slos]
        breached = [status["name"] for status in slos if status["status"] == "breached"]
        if not accepting:
            status = "draining"
        elif alive == self.pool.count:
            status = "ok"
        elif alive:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "role": "router",
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": round(monotonic() - self.started_at, 6),
            "workers": workers,
            "alive_workers": alive,
            "shard_map": self.pool.shard_map(),
            "pool": self.pool.stats(),
            "migrations": self.migrations,
            "slos": slos,
            "breached_slos": breached,
            "journal": self.journal.stats(),
            "traces": self.traces.stats(),
        }

    def _stats(self, params: dict | None = None) -> dict:
        from repro import obs

        worker_stats = []
        snapshots = []
        sessions_total = 0
        for handle in self.pool.handles():
            if not handle.alive:
                worker_stats.append({"slot": handle.slot, "status": "dead"})
                continue
            response = self._worker_request(
                handle, "stats", {"raw_metrics": True}
            )
            if response is None or not response.get("ok"):
                worker_stats.append({"slot": handle.slot, "status": "unreachable"})
                continue
            result = response["result"]
            snapshot = result.pop("metrics_snapshot", None)
            if snapshot is not None:
                snapshots.append(snapshot)
            sessions_total += len(result.get("sessions") or [])
            worker_stats.append(
                {
                    "slot": handle.slot,
                    "generation": handle.generation,
                    "status": "ok",
                    "sessions": result.get("sessions"),
                    "engine_cache": result.get("engine_cache"),
                }
            )
        snapshots.append(self.metrics.snapshot())
        merged = MetricsRegistry.merged(snapshots)
        return {
            "role": "router",
            "health": self._health() if params is None or not params.get("shallow") else None,
            "workers": worker_stats,
            "sessions_total": sessions_total,
            "shard_map": self.pool.shard_map(),
            "migrations": self.migrations,
            # One fleet-wide deterministic metrics view: counters summed,
            # gauges maxed, histogram populations pooled across workers.
            "metrics": obs.summarize_snapshot(merged.snapshot()),
            # The scrape loop's bounded history: per-shard request rates
            # (the `valuecheck top` heatmap feed) and windowed deltas.
            "timeseries": self.history.summary(series_base="service.requests"),
            "traces": self.traces.stats(),
        }

    def _events(self, request: dict) -> dict:
        """Merged cluster event stream: the router's journal stably
        merged with every live worker's, ordered on ``(timestamp, slot,
        seq)``.  Paging uses per-source cursors — ``router`` plus
        ``worker-<slot>.g<generation>`` — so a follower stays gap-free
        even when a slot respawns into a fresh journal (the new
        generation is a new source starting at 0)."""
        params = request.get("params", {})
        request_id = request.get("id")
        since = params.get("since", 0)
        limit = params.get("limit")
        kind = params.get("kind")
        cursors = params.get("cursors")
        if not isinstance(since, int) or isinstance(since, bool) or since < 0:
            return error_response(
                request_id, "invalid_params", "'since' must be a non-negative integer"
            )
        if limit is not None and (not isinstance(limit, int) or isinstance(limit, bool)):
            return error_response(request_id, "invalid_params", "'limit' must be an integer")
        if cursors is not None and (
            not isinstance(cursors, dict)
            or not all(
                isinstance(key, str) and isinstance(value, int) and value >= 0
                for key, value in cursors.items()
            )
        ):
            return error_response(
                request_id,
                "invalid_params",
                "'cursors' must map source -> non-negative integer",
            )
        cursors = dict(cursors or {})
        next_cursors = dict(cursors)

        # (ts, slot-order, seq) sorts the merge: the router sorts ahead
        # of workers at equal timestamps (slot order -1), workers by slot.
        merged: list[tuple[float, int, int, dict]] = []
        router_since = cursors.get("router", since)
        next_cursors.setdefault("router", router_since)
        for event in self.journal.events(since=router_since, kind=kind):
            row = dict(event.as_dict(), source="router")
            merged.append((event.ts, -1, event.seq, row))
        worker_params: dict = {}
        if kind is not None:
            worker_params["kind"] = kind
        for handle in self.pool.handles():
            if not handle.alive:
                continue
            source = f"worker-{handle.slot}.g{handle.generation}"
            worker_since = cursors.get(source, 0)
            next_cursors.setdefault(source, worker_since)
            response = self._worker_request(
                handle, "events", dict(worker_params, since=worker_since)
            )
            if response is None or not response.get("ok"):
                continue
            for event in response["result"].get("events", []):
                row = dict(event)
                row["source"] = source
                row.setdefault("slot", handle.slot)
                merged.append(
                    (float(event.get("ts", 0.0)), handle.slot, int(event["seq"]), row)
                )
        merged.sort(key=lambda item: (item[0], item[1], item[2]))
        if limit is not None and limit >= 0:
            merged = merged[:limit]
        # Cursors advance only over *returned* rows: anything cut by the
        # limit is re-fetched on the next page — no gaps.
        for _ts, _order, seq, row in merged:
            source = row["source"]
            next_cursors[source] = max(next_cursors.get(source, 0), seq)
        return ok_response(
            request_id,
            {
                "events": [row for _ts, _order, _seq, row in merged],
                "cursors": next_cursors,
                "journal": self.journal.stats(),
            },
        )

    def _stitched_trace(self, request: dict) -> dict:
        """The ``trace`` request against the cluster: collect every
        fragment of the trace — the router's own forward-hop record plus
        hits from **all** live workers (a migrated session leaves halves
        on two workers) — and stitch them into one cross-process
        timeline with clock-offset-corrected timestamps."""
        request_id = request.get("id")
        params = request.get("params", {})
        request_seq = params.get("request_id")
        trace_id = params.get("trace_id")
        chrome = bool(params.get("chrome"))
        if (request_seq is None) == (trace_id is None):
            return error_response(
                request_id,
                "invalid_params",
                "trace takes exactly one of 'request_id'/'trace_id'",
            )
        if request_seq is not None and (
            not isinstance(request_seq, int) or isinstance(request_seq, bool)
        ):
            return error_response(
                request_id, "invalid_params", "'request_id' must be an integer"
            )
        if trace_id is not None and not isinstance(trace_id, str):
            return error_response(
                request_id, "invalid_params", "'trace_id' must be a string"
            )

        router_records = []
        if request_seq is not None:
            # `request_id` is the *router's* request number; resolve it to
            # the trace id so the worker fragments can be collected too.
            record = self.traces.get(request_seq)
            if record is not None:
                router_records = [record]
                trace_id = record.trace_id
        else:
            router_records = self.traces.records_by_trace_id(trace_id)

        parts = []
        if router_records:
            parts.append(make_part("router", os.getpid(), router_records))
        worker_params: dict = {"all": True}
        if trace_id is not None:
            worker_params["trace_id"] = trace_id
        else:
            # Unresolvable router seq (pre-telemetry record or evicted):
            # fall back to broadcasting the worker-local request number.
            worker_params["request_id"] = request_seq
        for handle in sorted(self.pool.handles(), key=lambda h: h.slot):
            if not handle.alive:
                continue
            response = self._worker_request(handle, "trace", worker_params)
            if response is None or not response.get("ok"):
                continue
            result = response["result"]
            records = result.get("records") or [result]
            parts.append(make_part(f"worker-{handle.slot}", handle.pid, records))
        if not any(part.records for part in parts):
            return error_response(
                request_id, "unknown_trace", "no process holds this trace"
            )
        return ok_response(request_id, stitch(parts, trace_id=trace_id, chrome=chrome))


class _NullSpanCM:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN_CM = _NullSpanCM()
