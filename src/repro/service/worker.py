"""Worker process entry point: ``python -m repro.service.worker``.

One worker is one ordinary analysis service — its own
:class:`AnalysisService` core, :class:`SessionManager`, and engine
cache — bound to a private TCP port.  The only additions over
``valuecheck serve`` are the **ready line** and the signal contract:

* After binding (``--port 0`` picks a free port) the worker prints one
  JSON line on stdout — ``{"ready": true, "port": N, "pid": P}`` — and
  nothing else ever goes to stdout.  The pool parses this line to learn
  where the worker landed.
* SIGTERM triggers the draining shutdown (answer accepted work, then
  exit 0), so the pool's ``stop()`` never drops accepted requests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.engine.executors import EXECUTOR_KINDS, positive_int
from repro.service.core import AnalysisService, ServiceConfig
from repro.service.server import ServiceServer, install_signal_handlers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.worker",
        description="One analysis-service worker process (used by the router pool).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port")
    parser.add_argument(
        "--workers", type=positive_int, default=2, help="request threads"
    )
    parser.add_argument("--queue-capacity", type=int, default=16)
    parser.add_argument("--request-timeout", type=float, default=120.0)
    parser.add_argument("--max-sessions", type=int, default=8)
    parser.add_argument("--max-session-loc", type=int, default=None)
    parser.add_argument("--executor", choices=EXECUTOR_KINDS, default="serial")
    parser.add_argument("--profiler", action="store_true", default=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = ServiceConfig(
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        request_timeout=args.request_timeout,
        max_sessions=args.max_sessions,
        max_session_loc=args.max_session_loc,
        executor=args.executor,
        profiler=args.profiler,
    )
    service = AnalysisService(config).start()
    server = ServiceServer(service, host=args.host, port=args.port)
    install_signal_handlers(service)
    host, port = server.address
    sys.stdout.write(
        json.dumps({"ready": True, "host": host, "port": port, "pid": os.getpid()})
        + "\n"
    )
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        service.shutdown()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
