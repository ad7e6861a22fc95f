"""CLI surface of the service: ``valuecheck serve --stdio`` and
``valuecheck client`` against a live daemon, plus the ``valuecheck
stats`` rendering of a service lifetime record."""

import argparse
import dataclasses
import io
import json

from repro import obs
from repro.cli import (
    _render_cluster_top,
    _router_config,
    _service_config,
    build_parser,
    main,
)
from repro.service import (
    RouterConfig,
    ServiceConfig,
    WorkerSpec,
    serve_stdio,
    serve_tcp,
    wait_for_port,
)
from repro.service import worker as worker_entry
from repro.service.protocol import REQUEST_TYPES, encode

SOURCES = {"m.c": "int f(void)\n{\n    int dead;\n    dead = 1;\n    return 0;\n}\n"}


def _lines(*requests):
    return io.StringIO("".join(encode(r) for r in requests))


class TestServeStdio:
    def test_request_stream(self):
        stdin = _lines(
            {"id": 1, "type": "open_project",
             "params": {"sources": SOURCES, "project_id": "p"}},
            {"id": 2, "type": "analyze", "params": {"project_id": "p"}},
            {"id": 3, "type": "shutdown"},
        )
        stdout = io.StringIO()
        service = serve_stdio(ServiceConfig(workers=1), stdin=stdin, stdout=stdout)
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [r["id"] for r in responses] == [1, 2, 3]
        assert all(r["ok"] for r in responses)
        assert service.stopped

    def test_eof_shuts_down(self):
        stdout = io.StringIO()
        service = serve_stdio(
            ServiceConfig(workers=1), stdin=_lines(), stdout=stdout
        )
        assert service.stopped

    def test_bad_line_answered_not_fatal(self):
        stdin = io.StringIO("{oops\n" + encode({"id": 2, "type": "health"}))
        stdout = io.StringIO()
        serve_stdio(ServiceConfig(workers=1), stdin=stdin, stdout=stdout)
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert responses[0]["error"]["code"] == "bad_json"
        assert responses[1]["ok"] is True


class TestClientCommand:
    def test_client_round_trip(self, capsys):
        service, server = serve_tcp(ServiceConfig(workers=1), port=0, block=False)
        host, port = server.address
        assert wait_for_port(host, port)
        try:
            rc = main(
                [
                    "client", "open_project",
                    "--host", host, "--port", str(port),
                    "--params", json.dumps({"sources": SOURCES, "project_id": "p"}),
                ]
            )
            assert rc == 0
            assert json.loads(capsys.readouterr().out)["project_id"] == "p"
            rc = main(["client", "health", "--host", host, "--port", str(port)])
            assert rc == 0
            assert json.loads(capsys.readouterr().out)["status"] == "ok"
        finally:
            service.shutdown()
            server.server_close()

    def test_client_params_from_file(self, tmp_path, capsys):
        service, server = serve_tcp(ServiceConfig(workers=1), port=0, block=False)
        host, port = server.address
        assert wait_for_port(host, port)
        params_path = tmp_path / "open.json"
        params_path.write_text(
            json.dumps({"sources": SOURCES, "project_id": "p"})
        )
        try:
            rc = main(
                ["client", "open_project", "--host", host, "--port", str(port),
                 "--params", f"@{params_path}"]
            )
            assert rc == 0
            assert json.loads(capsys.readouterr().out)["project_id"] == "p"
            rc = main(
                ["client", "health", "--host", host, "--port", str(port),
                 "--params", f"@{tmp_path / 'missing.json'}"]
            )
            assert rc == 2
            assert "cannot read params file" in capsys.readouterr().err
        finally:
            service.shutdown()
            server.server_close()

    def test_client_error_exit_codes(self, capsys):
        service, server = serve_tcp(ServiceConfig(workers=1), port=0, block=False)
        host, port = server.address
        assert wait_for_port(host, port)
        try:
            rc = main(
                ["client", "analyze", "--host", host, "--port", str(port),
                 "--params", json.dumps({"project_id": "ghost"})]
            )
            assert rc == 1
            assert "unknown_project" in capsys.readouterr().err
            rc = main(
                ["client", "health", "--host", host, "--port", str(port),
                 "--params", "{not json"]
            )
            assert rc == 2
        finally:
            service.shutdown()
            server.server_close()

    def test_client_unreachable_server(self, capsys):
        rc = main(["client", "health", "--port", "1"])  # nothing listens there
        assert rc == 2
        assert "cannot reach" in capsys.readouterr().err


class TestStatsRendering:
    def test_service_record_renders_in_stats_table(self, tmp_path, capsys):
        from repro.service import AnalysisService

        service = AnalysisService(ServiceConfig(workers=1)).start()
        service.submit(
            {"id": 1, "type": "open_project",
             "params": {"sources": SOURCES, "project_id": "p"}}
        )
        service.submit({"id": 2, "type": "analyze", "params": {"project_id": "p"}})
        service.shutdown()
        stats_path = tmp_path / "svc.jsonl"
        obs.write_jsonl(stats_path, service.stats_record())

        rc = main(["stats", str(stats_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "service requests" in out
        assert "service.requests{outcome=ok,type=analyze}" in out
        assert "service latency" in out


class TestObservabilityCommands:
    def _serve(self):
        service, server = serve_tcp(ServiceConfig(workers=1), port=0, block=False)
        host, port = server.address
        assert wait_for_port(host, port)
        return service, server, host, port

    def test_client_trace_id_flag_round_trip(self, capsys):
        service, server, host, port = self._serve()
        try:
            rc = main(
                [
                    "client", "open_project",
                    "--host", host, "--port", str(port),
                    "--trace-id", "cli-trace-1",
                    "--params", json.dumps({"sources": SOURCES, "project_id": "p"}),
                ]
            )
            assert rc == 0
            capsys.readouterr()
            rc = main(
                [
                    "client", "trace",
                    "--host", host, "--port", str(port),
                    "--params", json.dumps({"trace_id": "cli-trace-1"}),
                ]
            )
            assert rc == 0
            trace = json.loads(capsys.readouterr().out)
            assert trace["trace_id"] == "cli-trace-1"
            names = [span["name"] for span in trace["spans"]]
            assert "service.request" in names and "queue.wait" in names
        finally:
            service.shutdown()
            server.server_close()

    def test_events_command_streams_journal(self, capsys):
        service, server, host, port = self._serve()
        try:
            rc = main(
                [
                    "client", "open_project",
                    "--host", host, "--port", str(port),
                    "--params", json.dumps({"sources": SOURCES, "project_id": "p"}),
                ]
            )
            assert rc == 0
            capsys.readouterr()
            rc = main(["events", "--host", host, "--port", str(port)])
            assert rc == 0
            rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            kinds = [row["kind"] for row in rows]
            assert kinds[0] == "service.start"
            assert "request.start" in kinds and "request.end" in kinds
            assert "session.opened" in kinds
            seqs = [row["seq"] for row in rows]
            assert seqs == sorted(seqs)
        finally:
            service.shutdown()
            server.server_close()

    def test_events_kind_filter_and_follow_iterations(self, capsys):
        service, server, host, port = self._serve()
        try:
            main(
                [
                    "client", "open_project",
                    "--host", host, "--port", str(port),
                    "--params", json.dumps({"sources": SOURCES, "project_id": "p"}),
                ]
            )
            capsys.readouterr()
            rc = main(
                [
                    "events", "--host", host, "--port", str(port),
                    "--kind", "session", "--follow", "--iterations", "2",
                    "--poll-interval", "0.01",
                ]
            )
            assert rc == 0
            rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            # The cursor advances between polls: no event repeats.
            assert [row["kind"] for row in rows] == ["session.opened"]
        finally:
            service.shutdown()
            server.server_close()

    def test_top_dashboard_renders(self, capsys):
        service, server, host, port = self._serve()
        try:
            main(
                [
                    "client", "open_project",
                    "--host", host, "--port", str(port),
                    "--params", json.dumps({"sources": SOURCES, "project_id": "p"}),
                ]
            )
            main(
                [
                    "client", "analyze",
                    "--host", host, "--port", str(port),
                    "--params", json.dumps({"project_id": "p"}),
                ]
            )
            capsys.readouterr()
            rc = main(["top", "--host", host, "--port", str(port), "--iterations", "1"])
            assert rc == 0
            out = capsys.readouterr().out
            assert "valuecheck service" in out
            assert "status=ok" in out
            assert "requests" in out  # the SLO table
            assert "self-time" in out  # the layer table from stats.layers
            assert "core.pipeline" in out
            assert "profiler" not in out
        finally:
            service.shutdown()
            server.server_close()

    def test_top_unreachable_server(self, capsys):
        rc = main(["top", "--port", "1", "--iterations", "1"])
        assert rc == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_events_unreachable_server(self, capsys):
        rc = main(["events", "--port", "1"])
        assert rc == 2
        assert "cannot reach" in capsys.readouterr().err


class TestDefaults:
    """Every daemon command's defaults are its config dataclass's."""

    def test_serve_without_flags_builds_the_default_service_config(self):
        assert _service_config(build_parser().parse_args(["serve"])) == ServiceConfig()

    def test_route_without_flags_builds_the_default_router_config(self):
        assert _router_config(build_parser().parse_args(["route"])) == RouterConfig()

    def test_worker_without_flags_builds_the_default_service_config(self):
        assert WorkerSpec().service_config() == ServiceConfig()
        args = worker_entry.build_parser().parse_args([])
        assert args.spec.service_config() == ServiceConfig()

    def test_worker_spec_reaches_the_worker_as_one_json_argument(self):
        spec = WorkerSpec(
            threads=3,
            queue_capacity=5,
            request_timeout=7.5,
            max_sessions=2,
            max_session_loc=900,
            executor="process",
        )
        argv = ["--spec", json.dumps(dataclasses.asdict(spec))]
        received = worker_entry.build_parser().parse_args(argv).spec
        assert received == spec
        assert received.service_config() == ServiceConfig(
            workers=3,
            queue_capacity=5,
            request_timeout=7.5,
            max_sessions=2,
            max_session_loc=900,
            executor="process",
        )

    def test_client_request_types_are_the_protocol_table(self):
        commands = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        client = commands.choices["client"]
        request_type = next(action for action in client._actions if action.dest == "type")
        assert tuple(request_type.choices) == REQUEST_TYPES

    def test_worker_spec_shares_the_service_defaults(self):
        service = ServiceConfig()
        spec = WorkerSpec()
        assert spec.threads == service.workers
        for field in dataclasses.fields(WorkerSpec):
            if field.name != "threads":
                assert getattr(spec, field.name) == getattr(service, field.name)


def _router_stats(uptime, forwarded, generation=0):
    """A router ``stats`` payload reduced to what `top` reads."""
    return {
        "role": "router",
        "sessions_total": 1,
        "migrations": 0,
        "health": {
            "status": "ok",
            "alive_workers": len(forwarded),
            "uptime_seconds": uptime,
            "slos": [],
            "workers": [
                {
                    "slot": slot,
                    "generation": generation,
                    "status": "ok",
                    "sessions": 1,
                    "queue_depth": 0,
                    "requests_forwarded": count,
                    "burn_rate": 0.0,
                }
                for slot, count in enumerate(forwarded)
            ],
            "journal": {},
            "traces": {},
        },
    }


def _shard_row(frame, slot):
    return next(
        line.split()
        for line in frame.splitlines()
        if line.startswith(f"  {slot}   ") and len(line.split()) == 8
    )


class TestClusterTop:
    def test_rates_come_from_two_consecutive_polls(self):
        first = _router_stats(10.0, [4, 0])
        second = _router_stats(12.0, [10, 1])
        history: dict = {}
        frame = _render_cluster_top(first, None, history)
        assert "no rate yet" in frame
        assert _shard_row(frame, 0)[6] == "--"
        assert history == {}
        frame = _render_cluster_top(second, first, history)
        assert "no rate yet" not in frame
        assert _shard_row(frame, 0)[6] == "3.00"  # (10 - 4) / 2 s
        assert _shard_row(frame, 1)[6] == "0.50"
        assert history == {0: [3.0], 1: [0.5]}
        assert "heatmap (oldest → newest poll)" in frame

    def test_counter_drop_is_a_reset_with_zero_rate(self):
        # The slot respawned: its new handle counts from zero again.
        before = _router_stats(10.0, [50, 2])
        after = _router_stats(11.0, [3, 4], generation=1)
        history: dict = {}
        frame = _render_cluster_top(after, before, history)
        assert _shard_row(frame, 0)[6] == "0.00"
        assert _shard_row(frame, 1)[6] == "2.00"
        assert history[0] == [0.0]
