"""Wire-protocol contract tests: every malformed input gets a typed error."""

import copy
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    ERROR_CODES,
    REQUEST_TYPES,
    AnalysisService,
    ProtocolError,
    Router,
    RouterConfig,
    ServiceConfig,
    WorkerSpec,
    decode_request,
    encode,
    error_response,
    ok_response,
)
from repro.service.protocol import MAX_REQUEST_BYTES, PARAM_TYPES, REQUEST_PARAMS, Params
from repro.vcs import Author, Repository

SERVICE_DOC = Path(__file__).resolve().parents[2] / "docs" / "SERVICE.md"


@pytest.fixture
def service():
    svc = AnalysisService(ServiceConfig(workers=1, queue_capacity=4)).start()
    yield svc
    svc.shutdown()


class TestDecodeRequest:
    def test_valid_envelope(self):
        request = decode_request('{"id": 3, "type": "health"}')
        assert request == {"id": 3, "type": "health", "params": {}}

    def test_malformed_json(self):
        with pytest.raises(ProtocolError) as info:
            decode_request("{not json")
        assert info.value.code == "bad_json"

    def test_non_object_request(self):
        with pytest.raises(ProtocolError) as info:
            decode_request("[1, 2]")
        assert info.value.code == "bad_request"

    def test_missing_type(self):
        with pytest.raises(ProtocolError) as info:
            decode_request('{"id": 1}')
        assert info.value.code == "bad_request"

    def test_unknown_type(self):
        with pytest.raises(ProtocolError) as info:
            decode_request('{"type": "explode"}')
        assert info.value.code == "unknown_type"

    def test_non_object_params(self):
        with pytest.raises(ProtocolError) as info:
            decode_request('{"type": "health", "params": [1]}')
        assert info.value.code == "bad_request"

    def test_compound_id_rejected(self):
        with pytest.raises(ProtocolError) as info:
            decode_request('{"type": "health", "id": {"a": 1}}')
        assert info.value.code == "bad_request"

    def test_oversized_request(self):
        line = json.dumps({"type": "analyze", "params": {"pad": "x" * MAX_REQUEST_BYTES}})
        with pytest.raises(ProtocolError) as info:
            decode_request(line)
        assert info.value.code == "too_large"

    def test_every_request_type_decodes(self):
        for kind in REQUEST_TYPES:
            assert decode_request(json.dumps({"type": kind}))["type"] == kind


class TestEnvelopes:
    def test_ok_response_shape(self):
        assert ok_response(7, {"a": 1}) == {"id": 7, "ok": True, "result": {"a": 1}}

    def test_error_response_shape(self):
        response = error_response(7, "queue_full", "busy", retry_after=0.25)
        assert response["ok"] is False
        assert response["error"]["code"] == "queue_full"
        assert response["error"]["retry_after"] == 0.25

    def test_error_codes_are_closed_set(self):
        with pytest.raises(AssertionError):
            error_response(1, "made_up_code", "nope")

    def test_encode_is_one_line(self):
        line = encode(ok_response(1, {"nested": {"x": [1, 2]}}))
        assert line.endswith("\n") and "\n" not in line[:-1]
        assert json.loads(line) == ok_response(1, {"nested": {"x": [1, 2]}})


class TestSubmitLine:
    def test_malformed_line_gets_error_response(self, service):
        response = json.loads(service.submit_line("{broken"))
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_json"

    def test_unknown_type_gets_error_response(self, service):
        response = json.loads(service.submit_line('{"id": 9, "type": "reboot"}'))
        assert response["error"]["code"] == "unknown_type"

    def test_oversized_line_rejected_before_parsing(self, service):
        pad = "y" * MAX_REQUEST_BYTES
        line = json.dumps({"type": "health", "params": {"pad": pad}})
        response = json.loads(service.submit_line(line))
        assert response["error"]["code"] == "too_large"

    def test_health_round_trip(self, service):
        response = json.loads(service.submit_line('{"id": 1, "type": "health"}'))
        assert response["ok"] is True
        assert response["id"] == 1
        assert response["result"]["status"] == "ok"

    def test_all_error_codes_documented(self):
        # Codes used across the service must stay within the contract.
        assert set(ERROR_CODES) >= {
            "bad_json",
            "bad_request",
            "unknown_type",
            "too_large",
            "queue_full",
            "timeout",
            "shutting_down",
            "unknown_project",
            "invalid_params",
            "internal",
        }

    def test_request_params_documented(self):
        # docs/SERVICE.md's params table lists exactly the schema's keys,
        # object-valued keys as `options.executor` and so on.
        text = SERVICE_DOC.read_text()
        section = text.split("### Request params", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"^\| `(\w+)` \| `([\w.]+)` \|", section, re.M))
        schema = set()
        for kind, params in REQUEST_PARAMS.items():
            for key, spec in params.keys.items():
                if isinstance(spec, Params):
                    schema |= {(kind, f"{key}.{sub}") for sub in spec.keys}
                else:
                    schema.add((kind, key))
        assert documented - schema == set(), "documented but not in the schema"
        assert schema - documented == set(), "in the schema but not documented"


class TestParamValidation:
    def test_unknown_project(self, service):
        response = service.submit(
            {"id": 1, "type": "analyze", "params": {"project_id": "ghost"}}
        )
        assert response["error"]["code"] == "unknown_project"

    def test_open_project_needs_sources_or_root(self, service):
        response = service.submit({"id": 1, "type": "open_project", "params": {}})
        assert response["error"]["code"] == "invalid_params"

    def test_open_project_rejects_non_string_sources(self, service):
        response = service.submit(
            {
                "id": 1,
                "type": "open_project",
                "params": {"sources": {"a.c": 42}},
            }
        )
        assert response["error"]["code"] == "invalid_params"

    def test_analyze_diff_needs_exactly_one_of_changes_commit(self, service):
        service.submit(
            {
                "id": 1,
                "type": "open_project",
                "params": {"sources": {"a.c": "int f(void)\n{\n    return 0;\n}\n"},
                           "project_id": "p"},
            }
        )
        response = service.submit(
            {"id": 2, "type": "analyze_diff", "params": {"project_id": "p"}}
        )
        assert response["error"]["code"] == "invalid_params"

    @pytest.mark.parametrize(
        ("contents", "rev"),
        [
            ('{"format": 2, "name": "r"', 0),  # truncated file
            ('{"format": 7, "commits": []}', 0),  # unknown format
            (None, 99),  # revision out of range
            (None, "0000deadbeef"),  # unknown commit id
            (None, [1]),  # not a revision at all
        ],
    )
    def test_bad_repository_or_rev_is_invalid_params(self, service, tmp_path, contents, rev):
        path = tmp_path / "repo.json"
        if contents is None:
            repo = Repository("r")
            repo.commit(Author("a"), "init", {"a.c": "int f(void)\n{\n    return 0;\n}\n"}, day=1)
            repo.save(path)
        else:
            path.write_text(contents)
        response = service.submit(
            {"id": 1, "type": "open_project", "params": {"repo": str(path), "rev": rev}}
        )
        assert response["error"]["code"] == "invalid_params"
        assert service.submit({"id": 2, "type": "health"})["ok"]

    def test_open_project_with_unparsable_source_is_invalid_params(self, service):
        response = service.submit(
            {
                "id": 1,
                "type": "open_project",
                "params": {"project_id": "bad", "sources": {"a.c": "int f( {"}},
            }
        )
        assert response["error"]["code"] == "invalid_params"
        assert response["error"]["message"].startswith("a.c:1:8: ")
        assert service.sessions.ids() == []
        assert service.submit({"id": 2, "type": "health"})["ok"]

    def test_analyze_diff_with_unparsable_change_is_invalid_params(self, service):
        good = "int f(void)\n{\n    int x = 1;\n    x = 2;\n    return 0;\n}\n"
        service.submit(
            {
                "id": 1,
                "type": "open_project",
                "params": {"project_id": "p", "sources": {"a.c": good, "b.c": good}},
            }
        )
        before = service.submit({"id": 2, "type": "analyze", "params": {"project_id": "p"}})
        response = service.submit(
            {
                "id": 3,
                "type": "analyze_diff",
                "params": {"project_id": "p", "changes": {"a.c": "int f( {", "c.c": good}},
            }
        )
        assert response["error"]["code"] == "invalid_params"
        assert response["error"]["message"].startswith("a.c:1:8: ")
        after = service.submit({"id": 4, "type": "analyze", "params": {"project_id": "p"}})
        for response in (before, after):
            del response["result"]["seconds"], response["result"]["engine"]
        assert after["result"] == before["result"]
        assert service.submit({"id": 5, "type": "health"})["ok"]

    def test_handler_exception_becomes_internal_error(self, service):
        def boom(params):
            raise RuntimeError("kaboom")

        service._handlers["analyze"] = boom
        service.submit(
            {
                "id": 1,
                "type": "open_project",
                "params": {"sources": {"a.c": "int f(void)\n{\n    return 0;\n}\n"}},
            }
        )
        response = service.submit({"id": 2, "type": "analyze", "params": {}})
        assert response["error"]["code"] == "internal"
        assert "kaboom" in response["error"]["message"]


class TestOpenProjectOptions:
    SOURCES = {"a.c": "int f(void)\n{\n    return 0;\n}\n"}

    def _open(self, service, options):
        return service.submit(
            {
                "id": 1,
                "type": "open_project",
                "params": {"sources": dict(self.SOURCES), "options": options},
            }
        )

    @pytest.mark.parametrize(
        "options, named",
        [
            ({"executor": "bogus"}, "serial, process"),
            ({"executor": "thread"}, "serial, process"),
            ({"workers": "many"}, "'workers'"),
            ({"workers": 0}, "'workers'"),
            ({"workers": -1}, "'workers'"),
            ({"workers": True}, "'workers'"),
            ({"use_authorship": "false"}, "'use_authorship'"),
            ({"module_cache": "false"}, "'module_cache'"),
            ({"module_cache": 0}, "'module_cache'"),
        ],
    )
    def test_bad_option_is_invalid_params(self, service, options, named):
        response = self._open(service, options)
        assert response["error"]["code"] == "invalid_params"
        assert named in response["error"]["message"]

    def test_valid_options_open(self, service):
        response = self._open(
            service,
            {"executor": "process", "workers": 1, "use_authorship": False,
             "module_cache": False},
        )
        assert response["ok"] is True


class TestWorkerCounts:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_service_config_rejects_non_positive_workers(self, workers):
        with pytest.raises(ValueError, match="at least 1"):
            ServiceConfig(workers=workers)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_router_config_rejects_non_positive_workers(self, workers):
        with pytest.raises(ValueError, match="at least 1"):
            RouterConfig(workers=workers)
        with pytest.raises(ValueError, match="at least 1"):
            RouterConfig(spec=WorkerSpec(threads=workers))


SOURCES = {"a.c": "int f(void)\n{\n    return 0;\n}\n"}


@pytest.fixture(scope="module")
def cores():
    """An in-process service with project ``p`` open, and a router that
    is never started: anything it routed would answer ``shutting_down``,
    so ``invalid_params`` from it means it rejected before routing."""
    service = AnalysisService(ServiceConfig(workers=1, queue_capacity=4)).start()
    opened = service.submit(
        {"id": 0, "type": "open_project", "params": {"project_id": "p", "sources": SOURCES}}
    )
    assert opened["ok"], opened
    router = Router(RouterConfig(workers=1))
    # One journal event, so a bad ``kind`` filter has a row to trip over.
    router.journal.emit("router.note")
    yield {"service": service, "router": router}
    service.shutdown()
    router.shutdown()


class TestParamRegressions:
    """Malformed params that used to crash a handler, pass silently, or
    kill the router's connection thread."""

    @pytest.mark.parametrize("target", ["service", "router"])
    @pytest.mark.parametrize(
        ("kind", "params"),
        [
            # int() on the wire value raised: an `internal` error.
            ("analyze", {"project_id": "p", "top": "x"}),
            ("analyze", {"project_id": "p", "top": [1]}),
            ("analyze", {"project_id": "p", "top": None}),
            # set(5) raised; set("FOO") opened with macros F and O.
            ("open_project", {"sources": SOURCES, "build_config": 5}),
            ("open_project", {"sources": SOURCES, "build_config": "FOO"}),
            # Any truthy value attached SARIF.
            ("analyze", {"project_id": "p", "sarif": "no"}),
            # The router's journal filter raised TypeError out of submit_line.
            ("events", {"kind": 5}),
        ],
    )
    def test_is_invalid_params(self, cores, target, kind, params):
        core = cores[target]
        line = json.dumps({"id": 1, "type": kind, "params": params})
        response = json.loads(core.submit_line(line))
        assert response["ok"] is False
        assert response["error"]["code"] == "invalid_params"
        assert json.loads(core.submit_line('{"id": 2, "type": "health"}'))["ok"]


#: A value each param type accepts, to build a valid request around a fault.
VALID = {
    "string": "p",
    "count": 0,
    "positive": 1,
    "bool": False,
    "rev": 0,
    "names": [],
    "rules": [],
    "sources": SOURCES,
    "changes": {},
    "objects": [],
    "cursors": {},
}
JSON_VALUES = st.sampled_from(
    [None, True, 0, -1, 1, 2.5, "", "x", "serial", [], [1], ["a"], [{}], {}, {"a": 1},
     {"a": None}, {"a": "b"}]
)


def _accepts(spec, value) -> bool:
    if isinstance(spec, tuple):
        return isinstance(value, str) and value in spec
    return PARAM_TYPES[spec][0](value)


@st.composite
def bad_requests(draw):
    """A request of any type with one fault drawn from its schema: a
    wrong-typed value, a missing required key, or an unknown key."""
    kind = draw(st.sampled_from(REQUEST_TYPES))
    schema = REQUEST_PARAMS[kind]
    needed = schema.required + (schema.one_of[0] if schema.one_of else ())
    params = {key: VALID[schema.keys[key]] for key in needed}
    fault = draw(st.sampled_from(["wrong_type", "missing", "unknown"]))
    if fault == "missing" and needed:
        del params[draw(st.sampled_from(needed))]
    elif fault == "wrong_type" and schema.keys:
        key = draw(st.sampled_from(sorted(schema.keys)))
        spec = schema.keys[key]
        if isinstance(spec, Params):  # a wrong value one level down
            sub = draw(st.sampled_from(sorted(spec.keys)))
            wrong = JSON_VALUES.filter(lambda value: not _accepts(spec.keys[sub], value))
            params[key] = {sub: draw(wrong)}
        else:
            params[key] = draw(JSON_VALUES.filter(lambda value: not _accepts(spec, value)))
    else:
        unknown = st.text("abz_", min_size=1, max_size=4)
        params[draw(unknown.filter(lambda key: key not in schema.keys))] = draw(JSON_VALUES)
    return kind, params


@settings(max_examples=150, deadline=None)
@given(bad_requests())
def test_schema_fuzz_gets_invalid_params_from_service_and_router(cores, bad):
    kind, params = bad
    for core in (cores["service"], cores["router"]):
        response = core.submit({"id": 1, "type": kind, "params": copy.deepcopy(params)})
        assert response["ok"] is False
        code = response["error"]["code"]
        assert code in ERROR_CODES and code != "internal", response
        assert code == "invalid_params", response
