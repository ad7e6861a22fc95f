"""Wire-protocol contract tests: every malformed input gets a typed error."""

import json

import pytest

from repro.service import (
    ERROR_CODES,
    REQUEST_TYPES,
    AnalysisService,
    ProtocolError,
    RouterConfig,
    ServiceConfig,
    WorkerSpec,
    decode_request,
    encode,
    error_response,
    ok_response,
)


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
        line = json.dumps({"type": "analyze", "params": {"pad": "x" * 2048}})
        with pytest.raises(ProtocolError) as info:
            decode_request(line, max_bytes=1024)
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
        config = ServiceConfig(max_request_bytes=512)
        small = AnalysisService(config).start()
        try:
            line = json.dumps({"type": "health", "params": {"pad": "y" * 4096}})
            response = json.loads(small.submit_line(line))
            assert response["error"]["code"] == "too_large"
        finally:
            small.shutdown()

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
