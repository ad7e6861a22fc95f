"""Transports for the analysis service: TCP socket and stdio.

Both speak the same line-delimited JSON protocol and drive the same
:class:`~repro.service.core.AnalysisService`.  The TCP server handles
each connection on its own thread (the service's bounded queue — not
the connection count — is what limits concurrent analysis work); the
stdio loop serves one request stream, which is what editor integrations
spawn.
"""

from __future__ import annotations

import signal
import socket
import socketserver
import sys
import threading
from typing import TextIO

from repro.service.core import AnalysisService, ServiceConfig
from repro.service.protocol import MAX_REQUEST_BYTES


class _Connection(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        service: AnalysisService = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                line = self.rfile.readline(MAX_REQUEST_BYTES + 2)
            except (ConnectionError, OSError):
                return
            if not line:
                return  # client closed the stream
            if not line.strip():
                continue
            response = service.submit_line(line)
            try:
                self.wfile.write(response.encode())
                self.wfile.flush()
            except (ConnectionError, OSError):
                return
            if service.stopped:
                return


class ServiceServer(socketserver.ThreadingTCPServer):
    """TCP frontend: one thread per connection, shared service core."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, service: AnalysisService, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Connection)
        self.service = service
        # A shutdown request must stop the accept loop too, from *inside*
        # a handler thread — BaseServer.shutdown() deadlocks there, so a
        # helper thread performs it.
        service.add_shutdown_listener(
            lambda: threading.Thread(target=self.shutdown, daemon=True).start()
        )

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return host, port

    def serve_background(self) -> threading.Thread:
        thread = threading.Thread(
            target=self.serve_forever, name="svc-accept", daemon=True
        )
        thread.start()
        return thread


def install_signal_handlers(service, signals=(signal.SIGTERM, signal.SIGINT)) -> bool:
    """Make SIGTERM (and SIGINT) trigger the draining shutdown path.

    Without this, only ``KeyboardInterrupt`` drains: an orchestrator
    (worker pool, systemd, Docker) sending SIGTERM would kill the
    process mid-request, dropping accepted work the protocol promised to
    answer.  The handler runs ``shutdown(drain=True)`` — stop accepting,
    answer everything already accepted, then stop — which also fires the
    shutdown listeners that stop a TCP accept loop.

    ``service`` is anything with an idempotent ``shutdown()`` (the
    :class:`AnalysisService` core or a router).  Returns ``False`` when
    handlers cannot be registered (not on the main thread, e.g. under a
    test runner); callers may ignore the result — the Ctrl-C path still
    works regardless.
    """

    def _drain(signum: int, frame) -> None:  # pragma: no cover - signal path
        service.shutdown()

    try:
        for signum in signals:
            signal.signal(signum, _drain)
    except ValueError:  # not the main thread of the main interpreter
        return False
    return True


def serve_tcp(
    config: ServiceConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    block: bool = True,
) -> tuple[AnalysisService, ServiceServer]:
    """Start the daemon on a TCP port; ``port=0`` picks a free one."""
    service = AnalysisService(config).start()
    server = ServiceServer(service, host=host, port=port)
    if block:
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            service.shutdown()
        finally:
            server.server_close()
    else:
        server.serve_background()
    return service, server


def serve_stdio(
    config: ServiceConfig | None = None,
    stdin: TextIO | None = None,
    stdout: TextIO | None = None,
) -> AnalysisService:
    """Serve one request stream over stdin/stdout (editor integration).

    Runs until EOF or a ``shutdown`` request; returns the (stopped)
    service so callers can inspect its final stats.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    service = AnalysisService(config).start()
    try:
        for line in stdin:
            if not line.strip():
                continue
            stdout.write(service.submit_line(line))
            stdout.flush()
            if service.stopped:
                break
    finally:
        if not service.stopped:
            service.shutdown()
    return service


def wait_for_port(host: str, port: int, timeout: float = 5.0) -> bool:
    """Poll until the daemon accepts connections (test/tooling helper)."""
    from repro.obs.clock import monotonic

    deadline = monotonic() + timeout
    while monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=0.2):
                return True
        except OSError:
            continue
    return False
