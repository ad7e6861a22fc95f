"""The worker pool: N analysis-service processes behind one router.

Each worker is a real OS process running the existing server loop
(:mod:`repro.service.worker`) with its own :class:`SessionManager` and
engine cache — its own CPU, its own GIL, its own failure domain.  The
pool owns their lifecycle:

* **Spawn** — workers bind port 0 and report the chosen port on stdout
  as a single JSON ready line; the pool refuses to come up until every
  worker reported ready.
* **Health** — a probe thread sends each worker a ``health`` request
  every ``probe_interval`` seconds with a hard deadline.  A worker that
  misses :data:`PROBE_FAILURES` consecutive probes (or whose process
  exits) is declared dead.
* **Respawn** — dead workers are killed and restarted in the same slot
  with a bumped *generation*.  The generation is how the router knows a
  slot's warm state is gone: a session last opened on (slot 2, gen 1)
  must be re-opened before (slot 2, gen 2) can serve it.  A respawn
  whose spawn fails leaves the slot dead; the probe thread starts it
  again at its next tick.

Shard placement is a consistent-hash ring over the worker *slots*
(:class:`HashRing`): ``project_id`` hashes to a point, the owner is the
first **alive** slot clockwise.  While a slot is down (respawn in
flight) its range is served by the next slot on the ring; when it comes
back the range returns.  Virtual nodes keep the ranges balanced.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
import os
import select
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import EventJournal, MetricsRegistry
from repro.obs.clock import monotonic
from repro.service.client import ServiceClient
from repro.service.core import ServiceConfig

#: Consecutive failed health probes after which a worker is dead.
PROBE_FAILURES = 2


class HashRing:
    """Consistent hashing of string keys onto integer slots.

    Deterministic (sha1, fixed virtual-node labels): the same keys map
    to the same slots on every host and every run, which the tests and
    the load generator rely on.
    """

    def __init__(self, slots: int, vnodes: int = 64):
        if slots < 1:
            raise ValueError("need at least one slot")
        self.slots = slots
        self.vnodes = vnodes
        points: list[tuple[int, int]] = []
        for slot in range(slots):
            for vnode in range(vnodes):
                points.append((self._hash(f"slot-{slot}#{vnode}"), slot))
        points.sort()
        self._points = points
        self._keys = [point for point, _ in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(hashlib.sha1(key.encode()).digest()[:8], "big")

    def owner(self, key: str, alive: set[int] | None = None) -> int:
        """The slot owning ``key``: first alive slot clockwise from the
        key's point.  ``alive=None`` means every slot is alive."""
        if alive is not None and not alive:
            raise LookupError("no alive slots")
        index = bisect.bisect_right(self._keys, self._hash(key)) % len(self._points)
        for step in range(len(self._points)):
            slot = self._points[(index + step) % len(self._points)][1]
            if alive is None or slot in alive:
                return slot
        raise LookupError("no alive slots")  # pragma: no cover - guarded above

    def shares(self) -> dict[int, float]:
        """Fraction of the hash space each slot owns (all slots alive)."""
        space = 1 << 64
        shares = {slot: 0 for slot in range(self.slots)}
        previous = self._points[-1][0] - space  # wrap-around arc
        for point, slot in self._points:
            shares[slot] += point - previous
            previous = point
        return {slot: arc / space for slot, arc in shares.items()}


@dataclass(frozen=True)
class WorkerSpec:
    """The ServiceConfig knobs of every worker process, with
    ServiceConfig's defaults.  The pool hands a worker its spec as one
    JSON argument (``--spec``); the worker rebuilds it and serves
    :meth:`service_config`."""

    threads: int = ServiceConfig.workers  # request worker threads inside each process
    queue_capacity: int = ServiceConfig.queue_capacity
    request_timeout: float = ServiceConfig.request_timeout
    max_sessions: int = ServiceConfig.max_sessions
    max_session_loc: int | None = ServiceConfig.max_session_loc
    executor: str = ServiceConfig.executor

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"worker threads must be at least 1, got {self.threads!r}")

    def service_config(self) -> ServiceConfig:
        """The worker's :class:`ServiceConfig`: every field carries over,
        ``threads`` as ``workers``."""
        fields = dataclasses.asdict(self)
        fields["workers"] = fields.pop("threads")
        return ServiceConfig(**fields)


@dataclass
class WorkerHandle:
    """One live worker process in one ring slot."""

    slot: int
    generation: int
    process: subprocess.Popen
    host: str
    port: int
    started_at: float = field(default_factory=monotonic)
    alive: bool = True
    consecutive_failures: int = 0
    requests_forwarded: int = 0

    @property
    def pid(self) -> int:
        return self.process.pid

    def process_exited(self) -> bool:
        return self.process.poll() is not None

    def as_dict(self) -> dict:
        return {
            "slot": self.slot,
            "generation": self.generation,
            "pid": self.pid,
            "port": self.port,
            "alive": self.alive,
            "uptime_seconds": round(monotonic() - self.started_at, 3),
            "requests_forwarded": self.requests_forwarded,
        }


def spawn_worker(
    host: str = "127.0.0.1",
    spec: WorkerSpec | None = None,
    ready_timeout: float = 30.0,
) -> tuple[subprocess.Popen, int]:
    """Start one worker process; returns (process, bound port).

    The worker binds port 0 and prints one JSON ready line on stdout;
    everything it logs goes to stderr (inherited).  Raises
    ``RuntimeError`` when the worker dies or stays silent past
    ``ready_timeout``.
    """
    spec = spec or WorkerSpec()
    src_root = Path(__file__).resolve().parent.parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src_root}:{env.get('PYTHONPATH', '')}".rstrip(":")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.worker", "--host", host, "--port", "0",
            "--spec", json.dumps(dataclasses.asdict(spec)),
        ],
        stdout=subprocess.PIPE,
        env=env,
    )
    deadline = monotonic() + ready_timeout
    line = b""
    while monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(
                f"worker exited with code {process.returncode} before reporting ready"
            )
        readable, _, _ = select.select([process.stdout], [], [], 0.1)
        if readable:
            line = process.stdout.readline()
            break
    if not line:
        process.kill()
        raise RuntimeError(f"worker did not report ready within {ready_timeout}s")
    try:
        ready = json.loads(line)
        port = int(ready["port"])
    except (ValueError, KeyError, TypeError) as error:
        process.kill()
        raise RuntimeError(f"bad worker ready line {line!r}: {error}") from error
    return process, port


class WorkerPool:
    """N worker processes, health-checked, respawned, consistently hashed."""

    def __init__(
        self,
        count: int,
        spec: WorkerSpec | None = None,
        host: str = "127.0.0.1",
        vnodes: int = 64,
        probe_interval: float = 2.0,
        probe_timeout: float = 5.0,
        journal: EventJournal | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if count < 1:
            raise ValueError("need at least one worker")
        self.count = count
        self.spec = spec or WorkerSpec()
        self.host = host
        self.ring = HashRing(count, vnodes=vnodes)
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.journal = journal
        self.metrics = metrics
        self._lock = threading.Lock()
        self._handles: dict[int, WorkerHandle] = {}
        self._respawning: set[int] = set()
        self._stopped = threading.Event()
        self._probe_thread: threading.Thread | None = None
        self.respawns = 0
        self.probes = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "WorkerPool":
        for slot in range(self.count):
            self._handles[slot] = self._spawn(slot, generation=1)
        if self.probe_interval > 0:
            self._probe_thread = threading.Thread(
                target=self._probe_loop, name="pool-probe", daemon=True
            )
            self._probe_thread.start()
        return self

    def _spawn(self, slot: int, generation: int) -> WorkerHandle:
        process, port = spawn_worker(host=self.host, spec=self.spec)
        handle = WorkerHandle(
            slot=slot, generation=generation, process=process, host=self.host, port=port
        )
        self._emit(
            "worker.spawned",
            slot=slot,
            generation=generation,
            pid=handle.pid,
            port=port,
        )
        return handle

    def stop(self, timeout: float = 10.0) -> None:
        """SIGTERM every worker (they drain — see install_signal_handlers),
        escalate to SIGKILL past the timeout."""
        self._stopped.set()
        with self._lock:
            handles = list(self._handles.values())
        for handle in handles:
            if not handle.process_exited():
                handle.process.terminate()
        deadline = monotonic() + timeout
        for handle in handles:
            remaining = max(0.1, deadline - monotonic())
            try:
                handle.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                handle.process.kill()
                handle.process.wait(timeout=5.0)
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=self.probe_interval + 1.0)

    # -- placement -------------------------------------------------------

    def handle(self, slot: int) -> WorkerHandle:
        with self._lock:
            return self._handles[slot]

    def handles(self) -> list[WorkerHandle]:
        with self._lock:
            return [self._handles[slot] for slot in sorted(self._handles)]

    def alive_slots(self) -> set[int]:
        with self._lock:
            return {slot for slot, h in self._handles.items() if h.alive}

    def owner(self, project_id: str) -> WorkerHandle:
        """The live worker owning ``project_id``'s hash range right now."""
        alive = self.alive_slots()
        if not alive:
            raise LookupError("no alive workers")
        return self.handle(self.ring.owner(project_id, alive))

    def shard_map(self) -> dict:
        """The routing table as reported in ``health``/``stats``."""
        shares = self.ring.shares()
        return {
            "vnodes": self.ring.vnodes,
            "slots": [
                dict(handle.as_dict(), ring_share=round(shares[handle.slot], 4))
                for handle in self.handles()
            ],
        }

    # -- failure handling ------------------------------------------------

    def report_failure(self, slot: int, generation: int) -> None:
        """The router saw a connection to this worker die.  Declare the
        worker dead if its process exited; a live process with one broken
        connection is left to the health probe's verdict."""
        with self._lock:
            handle = self._handles.get(slot)
            if handle is None or handle.generation != generation:
                return  # stale report about an already-replaced worker
            if handle.process_exited():
                self._declare_dead_locked(handle, reason="process_exited")

    def _declare_dead_locked(self, handle: WorkerHandle, reason: str) -> None:
        if not handle.alive:
            return
        handle.alive = False
        self._emit(
            "worker.died",
            slot=handle.slot,
            generation=handle.generation,
            pid=handle.pid,
            reason=reason,
        )
        if self.metrics is not None:
            self.metrics.inc("router.worker.deaths")
        self._start_respawn_locked(handle)

    def _start_respawn_locked(self, handle: WorkerHandle) -> None:
        """Replace a dead worker on a thread of its own, unless a
        replacement is already under way."""
        if not self._stopped.is_set() and handle.slot not in self._respawning:
            self._respawning.add(handle.slot)
            threading.Thread(
                target=self._respawn,
                args=(handle.slot, handle.generation),
                name=f"pool-respawn-{handle.slot}",
                daemon=True,
            ).start()

    def _respawn(self, slot: int, dead_generation: int) -> None:
        try:
            old = self.handle(slot)
            if not old.process_exited():
                old.process.kill()
                try:
                    old.process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass
            if self._stopped.is_set():
                return
            fresh = self._spawn(slot, generation=dead_generation + 1)
            # Install under the lock, re-checking the stop flag: stop()
            # sets it *before* snapshotting handles, so a fresh worker
            # spawned while stop() was running would escape its SIGTERM
            # sweep and leak — reap it here instead of installing it.
            with self._lock:
                installed = not self._stopped.is_set()
                if installed:
                    self._handles[slot] = fresh
            if not installed:
                fresh.process.terminate()
                try:
                    fresh.process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    fresh.process.kill()
                self._emit(
                    "worker.respawn_aborted", slot=slot, reason="pool_stopping"
                )
                return
            self.respawns += 1
            if self.metrics is not None:
                self.metrics.inc("router.worker.respawns")
            self._emit(
                "worker.respawned",
                slot=slot,
                generation=fresh.generation,
                pid=fresh.pid,
                port=fresh.port,
            )
        except Exception as error:  # a failed spawn: the probe loop retries it
            if self.metrics is not None:
                self.metrics.inc("router.worker.respawn_failures")
            self._emit("worker.respawn_failed", slot=slot, error=str(error))
        finally:
            with self._lock:
                self._respawning.discard(slot)

    # -- health probing --------------------------------------------------

    def _probe_loop(self) -> None:
        while not self._stopped.wait(self.probe_interval):
            for handle in self.handles():
                if self._stopped.is_set():
                    return
                if not handle.alive:
                    # Still dead after its respawn failed: try again, at
                    # most once per probe interval.
                    with self._lock:
                        self._start_respawn_locked(handle)
                    continue
                self.probes += 1
                if self._probe(handle):
                    handle.consecutive_failures = 0
                    continue
                handle.consecutive_failures += 1
                with self._lock:
                    if handle.process_exited():
                        self._declare_dead_locked(handle, reason="process_exited")
                    elif handle.consecutive_failures >= PROBE_FAILURES:
                        self._declare_dead_locked(handle, reason="probe_timeout")

    def _probe(self, handle: WorkerHandle) -> bool:
        """One ``health`` round-trip under the probe deadline."""
        try:
            client = ServiceClient(
                host=handle.host, port=handle.port, timeout=self.probe_timeout
            )
        except OSError:
            return False
        try:
            response = client.request_raw("health")
            return bool(response.get("ok"))
        except (OSError, ValueError):
            return False
        finally:
            try:
                client.close()
            except OSError:  # pragma: no cover
                pass

    # -- misc ------------------------------------------------------------

    def _emit(self, kind: str, **attrs) -> None:
        if self.journal is not None:
            self.journal.emit(kind, **attrs)

    def stats(self) -> dict:
        handles = self.handles()
        return {
            "workers": self.count,
            "alive": sum(handle.alive for handle in handles),
            "respawns": self.respawns,
            "probes": self.probes,
            "probe_interval": self.probe_interval,
        }
