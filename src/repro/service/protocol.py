"""The analysis service wire protocol: line-delimited JSON.

One request per line, one response line per request, over TCP or stdio.
A request is an envelope::

    {"id": 7, "type": "analyze", "params": {"project_id": "openssl"}}

``id`` is echoed verbatim in the response (any JSON scalar; optional —
fire-and-forget clients may omit it).  ``params`` is optional; its
keys per request type are data, :data:`REQUEST_PARAMS`, which
:func:`check_params` applies (an unknown key or a wrong-typed value is
``invalid_params``).  An optional ``trace_id`` string propagates the
caller's trace context: every span the request causes (queue wait,
session lookup, engine stages) is recorded under it, and the completed
trace is retrievable afterwards with a ``trace`` request.  Responses
are either::

    {"id": 7, "ok": true,  "result": {...}, "trace_id": "ci-run-42/3"}
    {"id": 7, "ok": false, "error": {"code": "queue_full",
                                     "message": "...",
                                     "retry_after": 0.5}}

``trace_id`` appears on data-plane responses whether the client set one
or the server assigned one — it is the key the client hands back to
``trace``.

A router forwarding a request additionally attaches ``span_ctx`` — an
object carrying the cross-process span context (``parent_span``: the
router span id the worker's trace hangs under, ``root_ts``: the
router's wall-clock accept epoch, ``origin``: the forwarding process's
label).  Workers store it with the request's trace record so the
router's trace stitcher (:mod:`repro.obs.stitch`) can parent and
clock-align worker spans on the cross-process timeline.  Ordinary
clients never send it.

Error codes are part of the protocol contract (clients dispatch on
them); see :data:`ERROR_CODES`.  Backpressure is explicit: a full queue
yields ``queue_full`` with a ``retry_after`` hint in seconds — the
server never silently drops an accepted request.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine import EXECUTOR_KINDS

PROTOCOL_VERSION = 1

#: Hard cap on one request line; oversized requests are rejected before
#: JSON parsing (a malicious or confused client cannot balloon memory).
MAX_REQUEST_BYTES = 4 << 20


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value: Any) -> bool:
    return isinstance(value, str)


def _is_list(value: Any, item_ok: Callable[[Any], bool]) -> bool:
    return isinstance(value, list) and all(item_ok(item) for item in value)


def _is_map(value: Any, value_ok: Callable[[Any], bool]) -> bool:
    return isinstance(value, dict) and all(
        isinstance(key, str) and value_ok(item) for key, item in value.items()
    )


#: What a param value may be: a predicate and the phrase an error
#: message uses for it.  ``null`` is no key's value: omit the key.
PARAM_TYPES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "string": (_is_str, "a string"),
    "count": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "positive": (lambda v: _is_int(v) and v >= 1, "an integer of at least 1"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "rev": (lambda v: _is_int(v) or _is_str(v), "a revision index or commit id"),
    "names": (lambda v: _is_list(v, _is_str), "a list of names"),
    "rules": (
        lambda v: _is_str(v) or _is_list(v, _is_str),
        "a list of rule-pack names or a comma-separated string",
    ),
    "sources": (lambda v: bool(v) and _is_map(v, _is_str), "a non-empty map of path -> text"),
    "changes": (
        lambda v: _is_map(v, lambda text: text is None or _is_str(text)),
        "a map of path -> new text (null = delete)",
    ),
    "objects": (lambda v: _is_list(v, lambda row: isinstance(row, dict)), "a list of objects"),
    "cursors": (
        lambda v: _is_map(v, lambda n: _is_int(n) and n >= 0),
        "a map of source -> non-negative integer",
    ),
}


@dataclass(frozen=True)
class Params:
    """One request's params schema.  ``keys`` maps each accepted key to
    a :data:`PARAM_TYPES` name, a tuple of enum choices, or a nested
    :class:`Params` (an object-valued key).  Each ``one_of`` group lists
    alternatives — tuples of keys that are present together — of which
    exactly one must be given."""

    keys: dict[str, Any]
    required: tuple[str, ...] = ()
    one_of: tuple[tuple[str, ...], ...] = ()
    defaults: dict[str, Any] = field(default_factory=dict)


def _session(keys: dict[str, Any], **schema: Any) -> Params:
    """A request against an open session: ``project_id`` is required."""
    return Params({"project_id": "string", **keys}, required=("project_id",), **schema)


_REPORT = {"top": "count", "sarif": "bool", "include_pruned": "bool"}
_REPORT_DEFAULTS = {"top": 20, "sarif": False, "include_pruned": False}

#: Every request type and its params, in the order the docs list them.
REQUEST_PARAMS: dict[str, Params] = {
    "open_project": Params(
        {
            "sources": "sources",
            "root": "string",
            "repo": "string",
            "rev": "rev",
            "build_config": "names",
            "options": Params(
                {"executor": EXECUTOR_KINDS, "workers": "positive", "use_authorship": "bool",
                 "module_cache": "bool", "rules": "rules"}
            ),
            "rules": "rules",
            "project_id": "string",
        },
        one_of=(("sources",), ("root",), ("repo", "rev")),
    ),
    "analyze": _session(_REPORT, defaults=_REPORT_DEFAULTS),
    "analyze_diff": _session(
        {"changes": "changes", "commit": "string", **_REPORT},
        one_of=(("changes",), ("commit",)),
        defaults=_REPORT_DEFAULTS,
    ),
    "explain": _session({"finding": "string"}),
    "baseline": _session({"rev": "string"}),
    "diff_findings": _session({"baseline_rev": "string"}),
    "gate": _session({"baseline_rev": "string", "baseline_entries": "objects"}),
    "stats": Params({"raw_metrics": "bool", "shallow": "bool"}),
    "health": Params({}),
    "trace": Params(
        {"request_id": "count", "trace_id": "string", "chrome": "bool", "all": "bool"},
        one_of=(("request_id",), ("trace_id",)),
    ),
    "events": Params(
        {"since": "count", "limit": "count", "kind": "string", "cursors": "cursors"},
        defaults={"since": 0},
    ),
    "shutdown": Params({"drain": "bool"}, defaults={"drain": True}),
}

REQUEST_TYPES = tuple(REQUEST_PARAMS)

#: Every error code a response may carry.
ERROR_CODES = (
    "bad_json",  # line is not valid JSON
    "bad_request",  # envelope malformed (wrong shapes/fields)
    "unknown_type",  # type not in REQUEST_TYPES
    "too_large",  # request line exceeds the byte cap
    "queue_full",  # backpressure: retry after `retry_after` seconds
    "timeout",  # deadline elapsed before a worker finished it
    "shutting_down",  # server is draining; no new work accepted
    "unknown_project",  # project_id not open (possibly evicted — re-open)
    "unknown_trace",  # trace/request id not in the (bounded) trace store
    "invalid_params",  # params failed type-specific validation
    "internal",  # handler raised; message carries the summary
    "worker_unavailable",  # router: no live worker can serve the shard; retry
)


class ProtocolError(Exception):
    """A request that cannot be accepted, with its wire error code."""

    def __init__(self, code: str, message: str, retry_after: float | None = None):
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message
        self.retry_after = retry_after


def decode_request(line: str | bytes) -> dict:
    """Parse and validate one request line into its envelope dict."""
    raw = line if isinstance(line, bytes) else line.encode()
    if len(raw) > MAX_REQUEST_BYTES:
        raise ProtocolError(
            "too_large", f"request is {len(raw)} bytes (cap {MAX_REQUEST_BYTES})"
        )
    try:
        payload = json.loads(raw)
    except ValueError as error:
        raise ProtocolError("bad_json", f"invalid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError("bad_request", "request must be a JSON object")
    kind = payload.get("type")
    if not isinstance(kind, str):
        raise ProtocolError("bad_request", "request needs a string 'type'")
    if kind not in REQUEST_TYPES:
        raise ProtocolError(
            "unknown_type",
            f"unknown request type {kind!r} (expected one of {', '.join(REQUEST_TYPES)})",
        )
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("bad_request", "'params' must be a JSON object")
    request_id = payload.get("id")
    if isinstance(request_id, (dict, list)):
        raise ProtocolError("bad_request", "'id' must be a JSON scalar")
    trace_id = payload.get("trace_id")
    if trace_id is not None and not isinstance(trace_id, str):
        raise ProtocolError("bad_request", "'trace_id' must be a string")
    span_ctx = payload.get("span_ctx")
    if span_ctx is not None and not isinstance(span_ctx, dict):
        raise ProtocolError("bad_request", "'span_ctx' must be a JSON object")
    envelope = {"id": request_id, "type": kind, "params": params}
    if trace_id is not None:
        envelope["trace_id"] = trace_id
    if span_ctx is not None:
        envelope["span_ctx"] = span_ctx
    return envelope


def check_params(kind: str, params: dict) -> dict:
    """``params`` of a ``kind`` request checked against its schema, with
    the defaults filled in; raises ``invalid_params`` naming the key."""
    return _check(REQUEST_PARAMS[kind], params, kind)


def _check(schema: Params, params: dict, where: str) -> dict:
    for key, value in params.items():
        spec = schema.keys.get(key)
        if spec is None:
            raise ProtocolError(
                "invalid_params",
                f"unknown key {key!r} in {where} "
                f"(expected {', '.join(schema.keys) or 'no params'})",
            )
        if isinstance(spec, Params):
            ok, what = isinstance(value, dict), "an object"
        elif isinstance(spec, tuple):
            ok, what = _is_str(value) and value in spec, f"one of {', '.join(spec)}"
        else:
            accepts, what = PARAM_TYPES[spec]
            ok = accepts(value)
        if not ok:
            raise ProtocolError(
                "invalid_params", f"'{key}' must be {what}; got {reprlib.repr(value)}"
            )
        if isinstance(spec, Params):
            _check(spec, value, f"'{key}'")
    for key in schema.required:
        if key not in params:
            raise ProtocolError("invalid_params", f"{where} needs '{key}'")
    if schema.one_of and sum(all(k in params for k in alt) for alt in schema.one_of) != 1:
        choices = " or ".join("+".join(f"'{k}'" for k in alt) for alt in schema.one_of)
        raise ProtocolError("invalid_params", f"{where} takes exactly one of {choices}")
    return {**schema.defaults, **params}


def open_recipe(params: dict, project_id: str) -> dict:
    """The serializable re-open recipe of a session: the ``open_project``
    params that produced it (already JSON — they arrived on the wire),
    with the resolved ``project_id`` pinned so a replay lands on the
    same session identity."""
    recipe = {key: params[key] for key in REQUEST_PARAMS["open_project"].keys if key in params}
    recipe["project_id"] = project_id
    return recipe


def ok_response(request_id: Any, result: dict, trace_id: str | None = None) -> dict:
    response = {"id": request_id, "ok": True, "result": result}
    if trace_id is not None:
        response["trace_id"] = trace_id
    return response


def error_response(
    request_id: Any,
    code: str,
    message: str,
    retry_after: float | None = None,
    trace_id: str | None = None,
) -> dict:
    assert code in ERROR_CODES, code
    error: dict = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after"] = round(retry_after, 3)
    response = {"id": request_id, "ok": False, "error": error}
    if trace_id is not None:
        response["trace_id"] = trace_id
    return response


def encode(payload: dict) -> str:
    """One response/request dict as one wire line (newline-terminated)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
