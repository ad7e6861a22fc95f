"""Worker process entry point: ``python -m repro.service.worker``.

One worker is one ordinary analysis service — its own
:class:`AnalysisService` core, :class:`SessionManager`, and engine
cache — bound to a private TCP port.  Its settings arrive as one
:class:`~repro.service.pool.WorkerSpec` in JSON (``--spec``; the
defaults without it).  The only additions over ``valuecheck serve`` are
the **ready line** and the signal contract:

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

from repro.service.core import AnalysisService
from repro.service.pool import WorkerSpec
from repro.service.server import ServiceServer, install_signal_handlers


def spec(text: str) -> WorkerSpec:
    """``--spec``: a :class:`WorkerSpec` written as one JSON object."""
    return WorkerSpec(**json.loads(text))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.worker",
        description="One analysis-service worker process (used by the router pool).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port")
    parser.add_argument(
        "--spec",
        type=spec,
        default=WorkerSpec(),
        help="the worker's settings as a JSON object of WorkerSpec fields",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    service = AnalysisService(args.spec.service_config()).start()
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
