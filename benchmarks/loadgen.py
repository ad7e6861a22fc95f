#!/usr/bin/env python
"""Concurrent load generator: single daemon vs sharded router topology.

Drives many concurrent clients against a real TCP-served analysis
service with a mixed workload (``analyze``, ``analyze_diff``, ``gate``,
``explain``) over a pool of generated projects, and measures throughput
and latency percentiles per topology::

    PYTHONPATH=src python benchmarks/loadgen.py                 # both topologies
    PYTHONPATH=src python benchmarks/loadgen.py --topology routed --clients 200

Topologies:

* ``single`` — one worker process (the plain ``valuecheck serve``
  daemon), clients connect directly.
* ``routed`` — a :class:`~repro.service.router.Router` front end over
  ``--workers`` worker processes (``valuecheck route``).

**What the comparison measures.**  This host may have a single CPU, so
the routed win is *not* CPU parallelism — it is warm-state capacity.
Both topologies run the same per-process session cap; the project pool
is deliberately larger than one process can keep warm.  The single
daemon therefore thrashes its session LRU — a steady stream of
``unknown_project`` rejections each forcing the client to replay
``open_project`` (re-parse, re-lower) before retrying — while the
routed fleet's aggregate capacity (workers × cap) holds every project
warm behind the consistent-hash ring.  That is exactly the scaling
argument of docs/OPERATIONS.md, measured honestly: every re-open the
single topology pays is a request the protocol really forces on a
client of a capacity-starved daemon.

Correctness is asserted alongside speed: a dedicated check project (not
part of the load mix, so no diff overlays touch it) is analysed on both
topologies and its finding fingerprints must match exactly.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.clock import monotonic  # noqa: E402
from repro.service import (  # noqa: E402
    Router,
    RouterConfig,
    ServiceClient,
    ServiceError,
    ServiceServer,
    WorkerSpec,
)
from repro.service.pool import spawn_worker  # noqa: E402

#: Traffic mix: weights of the data-plane requests each client issues.
DEFAULT_MIX = (
    ("analyze", 0.45),
    ("analyze_diff", 0.25),
    ("gate", 0.20),
    ("explain", 0.10),
)


@dataclass(frozen=True)
class LoadgenConfig:
    """One comparison run's knobs."""

    workers: int = 4  # routed topology's worker processes
    clients: int = 24  # concurrent client threads
    requests_per_client: int = 25
    projects: int = 12  # project pool size (> per-process session cap)
    max_sessions: int = 5  # per-process warm-session cap, both topologies
    worker_threads: int = 2  # request threads inside each process
    queue_capacity: int = 64
    scale: float = 0.05  # corpus generator scale per project
    seed: int = 7
    mix: tuple = DEFAULT_MIX

    def spec(self) -> WorkerSpec:
        return WorkerSpec(
            threads=self.worker_threads,
            queue_capacity=self.queue_capacity,
            max_sessions=self.max_sessions,
        )


@dataclass
class ProjectRecipe:
    """One generated project plus its canned diff edits."""

    project_id: str
    sources: dict[str, str]
    diff_variants: list[dict[str, str]] = field(default_factory=list)

    @property
    def open_params(self) -> dict:
        return {"project_id": self.project_id, "sources": self.sources}


def _diff_variant(sources: dict[str, str], index: int) -> dict[str, str]:
    """A deterministic one-file edit: append a fresh buggy function."""
    path = sorted(sources)[0]
    extra = (
        f"int lg_probe_{index}(void)\n"
        "{\n"
        "    int unused;\n"
        f"    unused = {index + 1};\n"
        f"    return {index};\n"
        "}\n"
    )
    return {path: sources[path] + "\n" + extra}


def build_projects(config: LoadgenConfig) -> list[ProjectRecipe]:
    """The deterministic project pool (same pool for both topologies)."""
    from repro.corpus import generate_app

    recipes = []
    for index in range(config.projects):
        app = generate_app(
            "nfs-ganesha", scale=config.scale, seed=config.seed * 100 + index
        )
        snapshot = app.repo.snapshot_at(len(app.repo.commits) - 1)
        sources = {k: v for k, v in snapshot.items() if k.endswith(".c")}
        recipe = ProjectRecipe(project_id=f"lg-{index:02d}", sources=sources)
        recipe.diff_variants = [
            _diff_variant(sources, variant) for variant in range(3)
        ]
        recipes.append(recipe)
    return recipes


def build_check_project(config: LoadgenConfig) -> ProjectRecipe:
    """The fingerprint-identity project: never in the load mix, so its
    session state is byte-identical on every topology."""
    from repro.corpus import generate_app

    app = generate_app("nfs-ganesha", scale=config.scale, seed=config.seed * 100 + 999)
    snapshot = app.repo.snapshot_at(len(app.repo.commits) - 1)
    sources = {k: v for k, v in snapshot.items() if k.endswith(".c")}
    return ProjectRecipe(project_id="lg-check", sources=sources)


def _pick_op(rng: random.Random, mix: tuple) -> str:
    roll = rng.random() * sum(weight for _, weight in mix)
    for op, weight in mix:
        roll -= weight
        if roll <= 0:
            return op
    return mix[-1][0]


def _op_params(op: str, recipe: ProjectRecipe, rng: random.Random) -> dict:
    if op == "analyze":
        return {"project_id": recipe.project_id, "top": 5}
    if op == "analyze_diff":
        changes = rng.choice(recipe.diff_variants)
        return {"project_id": recipe.project_id, "changes": changes, "top": 5}
    if op == "gate":
        return {"project_id": recipe.project_id}
    if op == "explain":
        return {"project_id": recipe.project_id}
    raise ValueError(f"unknown op {op!r}")


@dataclass
class ClientResult:
    ops: list = field(default_factory=list)  # (op, seconds, ok)
    reopens: int = 0
    errors: int = 0


def _client_loop(
    index: int,
    port: int,
    config: LoadgenConfig,
    recipes: list[ProjectRecipe],
    result: ClientResult,
    barrier: threading.Barrier,
) -> None:
    rng = random.Random(config.seed * 10_000 + index)
    client = ServiceClient(port=port, rng=random.Random(rng.random()))
    try:
        barrier.wait(timeout=60)
        for _ in range(config.requests_per_client):
            recipe = rng.choice(recipes)
            op = _pick_op(rng, config.mix)
            params = _op_params(op, recipe, rng)
            started = monotonic()
            ok = False
            try:
                client.request(op, params, retries=10, trace_id=f"lg-{index}")
                ok = True
            except ServiceError as error:
                if error.code == "unknown_project":
                    # The daemon evicted this session: the protocol's
                    # contract is "send open_project again" — the replay
                    # cost belongs to this request's latency.
                    try:
                        client.request(
                            "open_project", recipe.open_params, retries=10
                        )
                        client.request(op, params, retries=10)
                        result.reopens += 1
                        ok = True
                    except (ServiceError, ConnectionError, OSError):
                        pass
            except (ConnectionError, OSError):
                pass
            result.ops.append((op, monotonic() - started, ok))
            if not ok:
                result.errors += 1
    except threading.BrokenBarrierError:  # pragma: no cover - startup stall
        result.errors += config.requests_per_client
    finally:
        try:
            client.close()
        except OSError:  # pragma: no cover
            pass


def _percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _fingerprints(client: ServiceClient, recipe: ProjectRecipe) -> list[str]:
    """Open + analyze + diff the check project; its sorted fingerprints."""
    client.request("open_project", recipe.open_params, retries=10)
    client.request("analyze", {"project_id": recipe.project_id}, retries=10)
    diff = client.request(
        "diff_findings", {"project_id": recipe.project_id}, retries=10
    )
    return sorted(row["fingerprint"] for row in diff.get("rows", []))


class _Topology:
    """One running topology (single worker or routed pool) behind a port."""

    def __init__(self, kind: str, config: LoadgenConfig):
        self.kind = kind
        self.config = config
        self.router: Router | None = None
        self.server: ServiceServer | None = None
        self.process = None
        if kind == "single":
            self.process, self.port = spawn_worker(spec=config.spec())
        elif kind == "routed":
            self.router = Router(
                RouterConfig(
                    workers=config.workers,
                    spec=config.spec(),
                    probe_interval=2.0,
                )
            ).start()
            self.server = ServiceServer(self.router, port=0)
            self.server.serve_background()
            self.port = self.server.address[1]
        else:
            raise ValueError(f"unknown topology {kind!r}")

    def stats(self) -> dict:
        if self.router is not None:
            return {
                "migrations": self.router.migrations,
                "respawns": self.router.pool.respawns,
            }
        return {}

    def close(self) -> None:
        if self.router is not None:
            if not self.router.stopped:
                self.router.shutdown()
            if self.server is not None:
                self.server.server_close()
        if self.process is not None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except Exception:  # pragma: no cover - cleanup path
                self.process.kill()


def run_topology(
    kind: str,
    config: LoadgenConfig,
    recipes: list[ProjectRecipe],
    check: ProjectRecipe | None = None,
) -> dict:
    """Run the full load against one topology; its measurement dict."""
    topology = _Topology(kind, config)
    try:
        # Pre-open the pool once (untimed warmup): both topologies start
        # from the same state — as warm as their capacity allows.
        with ServiceClient(port=topology.port) as client:
            for recipe in recipes:
                client.request("open_project", recipe.open_params, retries=10)

        results = [ClientResult() for _ in range(config.clients)]
        barrier = threading.Barrier(config.clients + 1)
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(index, topology.port, config, recipes, results[index], barrier),
                name=f"lg-client-{index}",
                daemon=True,
            )
            for index in range(config.clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=60)  # release every client at once
        started = monotonic()
        for thread in threads:
            thread.join()
        wall_seconds = monotonic() - started

        ops = [op for result in results for op in result.ops]
        completed = [record for record in ops if record[2]]
        latencies = [record[1] for record in completed]
        per_op: dict[str, int] = {}
        for op, _, _ in ops:
            per_op[op] = per_op.get(op, 0) + 1
        measurement = {
            "requests": len(ops),
            "completed": len(completed),
            "errors": sum(result.errors for result in results),
            "reopens": sum(result.reopens for result in results),
            "seconds": round(wall_seconds, 6),
            "throughput_rps": round(len(completed) / wall_seconds, 3)
            if wall_seconds
            else 0.0,
            "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
            "p95_ms": round(_percentile(latencies, 0.95) * 1000, 3),
            "p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
            "per_op": per_op,
        }
        measurement.update(topology.stats())
        if check is not None:
            with ServiceClient(port=topology.port) as client:
                measurement["fingerprints"] = _fingerprints(client, check)
        return measurement
    finally:
        topology.close()


def run_comparison(config: LoadgenConfig) -> dict:
    """Both topologies over the identical pool: throughput, latency and
    check-project fingerprints per topology."""
    recipes = build_projects(config)
    check = build_check_project(config)
    single = run_topology("single", config, recipes, check=check)
    routed = run_topology("routed", config, recipes, check=check)
    single_fps = single.pop("fingerprints", [])
    routed_fps = routed.pop("fingerprints", [])
    single_rps = single["throughput_rps"]
    return {
        "workers": config.workers,
        "clients": config.clients,
        "projects": config.projects,
        "requests_per_client": config.requests_per_client,
        "max_sessions": config.max_sessions,
        "scale": config.scale,
        "single": single,
        "routed": routed,
        "speedup_routed": round(routed["throughput_rps"] / single_rps, 3)
        if single_rps
        else None,
        "fingerprints_identical": bool(single_fps) and single_fps == routed_fps,
        "fingerprint_count": len(single_fps),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--clients", type=int, default=24)
    parser.add_argument("--requests", type=int, default=25, help="per client")
    parser.add_argument("--projects", type=int, default=12)
    parser.add_argument("--max-sessions", type=int, default=5)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--topology", choices=("single", "routed", "both"), default="both"
    )
    parser.add_argument("--json", help="write the result payload to this path")
    args = parser.parse_args(argv)

    config = LoadgenConfig(
        workers=args.workers,
        clients=args.clients,
        requests_per_client=args.requests,
        projects=args.projects,
        max_sessions=args.max_sessions,
        scale=args.scale,
        seed=args.seed,
    )
    if args.topology == "both":
        payload = run_comparison(config)
        print(
            f"[loadgen] single: {payload['single']['throughput_rps']} rps "
            f"(p95 {payload['single']['p95_ms']}ms, "
            f"{payload['single']['reopens']} reopens)"
        )
        print(
            f"[loadgen] routed({config.workers}): "
            f"{payload['routed']['throughput_rps']} rps "
            f"(p95 {payload['routed']['p95_ms']}ms, "
            f"{payload['routed'].get('migrations', 0)} migrations)"
        )
        print(
            f"[loadgen] speedup {payload['speedup_routed']}x, "
            f"fingerprints identical: {payload['fingerprints_identical']} "
            f"({payload['fingerprint_count']} fingerprints)"
        )
    else:
        recipes = build_projects(config)
        check = build_check_project(config)
        payload = run_topology(args.topology, config, recipes, check=check)
        payload.pop("fingerprints", None)
        print(
            f"[loadgen] {args.topology}: {payload['throughput_rps']} rps "
            f"(p50 {payload['p50_ms']}ms, p95 {payload['p95_ms']}ms, "
            f"p99 {payload['p99_ms']}ms, {payload['errors']} errors)"
        )
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"[loadgen] wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
